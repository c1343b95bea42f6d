package raft

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzStorageRecord feeds raw bytes to the journal record decoder, as a
// corrupted or hostile journal would: it must never panic, and any record it
// accepts must re-encode to exactly its own bytes. No kind byte is '{', so
// that refuses the JSON seeds, records as they were written before the
// binary encoding. testdata/fuzz holds a record for each class of input the
// decoder rejects.
func FuzzStorageRecord(f *testing.F) {
	for _, rec := range []storageRecord{
		{Kind: recState, Term: 3, VotedFor: "n1"},
		{Kind: recState},
		{Kind: recAppend, First: 7, Entries: []Entry{{Term: 2, Cmd: []byte("a")}, {Term: 3}}},
		{Kind: recSnap, Snap: &Snapshot{Index: 9, Term: 2, Data: []byte{0, '{'}}},
		{Kind: recApplied, Applied: 300},
	} {
		f.Add(rec.appendBinary(nil))
	}
	f.Add([]byte(`{"k":"state","t":2,"v":"n1"}`))
	f.Add([]byte(`{"k":"append","f":3,"e":[{"Term":1,"Cmd":"eyJpZCI6MX0="}]}`))
	f.Add([]byte(`{"k":"snap","s":{"i":2,"t":1,"d":"AP97eA=="}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		if enc := rec.appendBinary(nil); !bytes.Equal(enc, data) {
			t.Fatalf("accepted record %x re-encodes to %x", data, enc)
		}
	})
}

// TestStorageRecordRejectsHostileInput: one journal record per class the
// decoder must refuse rather than replay.
func TestStorageRecordRejectsHostileInput(t *testing.T) {
	appendRec := (&storageRecord{Kind: recAppend, First: 1, Entries: []Entry{{Term: 1, Cmd: []byte("cmd")}}}).appendBinary(nil)
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"truncated", appendRec[:len(appendRec)-1]},
		{"unknown kind", []byte{0, 1, 0}},
		{"unknown high kind", []byte{0xff}},
		{"trailing bytes", append(append([]byte(nil), appendRec...), 0)},
		{"entry count past end", []byte{recAppend, 1, 0x80, 0x80, 0x40, 1, 0}},
		{"command length past end", []byte{recAppend, 1, 1, 1, 0x80, 0x80, 0x40, 'c'}},
		{"snapshot data past end", []byte{recSnap, 2, 1, 0xff, 0x7f, 0}},
		{"vote length past end", []byte{recState, 1, 9, 'n'}},
		{"varint not shortest", []byte{recState, 0x81, 0x00, 0}},
		{"append at index 0", []byte{recAppend, 0, 0}},
		{"applied index past end", []byte{recApplied, 0x80}},
		{"JSON applied hint", []byte(`{"k":"applied"}`)},
		{"JSON of unknown kind", []byte(`{"k":"vote","t":1}`)},
		{"JSON snap without snapshot", []byte(`{"k":"snap"}`)},
		{"JSON append at index 0", []byte(`{"k":"append","e":[]}`)},
		{"malformed JSON", []byte(`{"k":`)},
		{"JSON state", []byte(`{"k":"state","t":2,"v":"n1"}`)},
		{"JSON append", []byte(`{"k":"append","f":3,"e":[{"Term":1,"Cmd":"eyJpZCI6MX0="}]}`)},
		{"JSON snap", []byte(`{"k":"snap","s":{"i":2,"t":1,"d":"AP97eA=="}}`)},
	}
	for _, c := range cases {
		if rec, err := decodeRecord(c.in); err == nil {
			t.Errorf("%s: %q decoded to %+v", c.name, c.in, rec)
		}
	}
}

// copyDir copies the files of the checked-in fixture directory src into
// dst, which a test may then write to.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadsJSONEraStorage opens a journal written at commit aaf8a05, when
// records were JSON: state, a snapshot checkpoint with its tail, appends
// that overwrite a suffix, batch commands as entries. Only the binary
// encoding is read, so OpenFileStorage must refuse it at its first record,
// kind '{' (0x7b), before it repairs or opens anything: the directory keeps
// the files and the bytes its writer left, and gains no fresh segment.
func TestLoadsJSONEraStorage(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "json_era_storage"), dir)
	before := dirContents(t, dir)
	if _, err := ReadJournal(dir); err == nil || !strings.Contains(err.Error(), "record kind 0x7b") {
		t.Fatalf("ReadJournal of a JSON-era journal: %v", err)
	}
	fs, err := OpenFileStorage(dir)
	if err == nil {
		_ = fs.Close()
		t.Fatal("OpenFileStorage accepted a JSON-era journal")
	}
	if !strings.Contains(err.Error(), "record kind 0x7b") {
		t.Fatalf("OpenFileStorage of a JSON-era journal: %v", err)
	}
	if after := dirContents(t, dir); !maps.EqualFunc(after, before, bytes.Equal) {
		t.Fatalf("the refused open changed the directory: %d files, was %d", len(after), len(before))
	}
}

// dirContents maps each file name in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		if out[f.Name()], err = os.ReadFile(filepath.Join(dir, f.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
