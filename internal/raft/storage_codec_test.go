package raft

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"prognosticator/internal/wal"
)

func sameRecord(a, b storageRecord) bool {
	if a.Kind != b.Kind || a.Term != b.Term || a.VotedFor != b.VotedFor || a.First != b.First ||
		a.Applied != b.Applied || len(a.Entries) != len(b.Entries) || (a.Snap == nil) != (b.Snap == nil) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i].Term != b.Entries[i].Term || !bytes.Equal(a.Entries[i].Cmd, b.Entries[i].Cmd) {
			return false
		}
	}
	return a.Snap == nil || (a.Snap.Index == b.Snap.Index && a.Snap.Term == b.Snap.Term && bytes.Equal(a.Snap.Data, b.Snap.Data))
}

// FuzzStorageRecord feeds raw bytes to the journal record decoder, as a
// corrupted or hostile journal would: it must never panic, and any record it
// accepts, binary or JSON, must survive a binary re-encoding; an accepted
// binary record re-encodes to exactly its own bytes. testdata/fuzz holds a
// record for each class of input the decoder rejects.
func FuzzStorageRecord(f *testing.F) {
	for _, rec := range []storageRecord{
		{Kind: "state", Term: 3, VotedFor: "n1"},
		{Kind: "state"},
		{Kind: "append", First: 7, Entries: []Entry{{Term: 2, Cmd: []byte("a")}, {Term: 3}}},
		{Kind: "snap", Snap: &Snapshot{Index: 9, Term: 2, Data: []byte{0, '{'}}},
		{Kind: "applied", Applied: 300},
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
		enc := rec.appendBinary(nil)
		again, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoding %x of accepted %q does not decode: %v", enc, data, err)
		}
		if !sameRecord(rec, again) {
			t.Fatalf("record %+v came back as %+v", rec, again)
		}
		if data[0] != '{' && !bytes.Equal(enc, data) {
			t.Fatalf("accepted binary record %x re-encodes to %x", data, enc)
		}
	})
}

// TestStorageRecordRejectsHostileInput: one journal record per class the
// decoder must refuse rather than replay.
func TestStorageRecordRejectsHostileInput(t *testing.T) {
	appendRec := (&storageRecord{Kind: "append", First: 1, Entries: []Entry{{Term: 1, Cmd: []byte("cmd")}}}).appendBinary(nil)
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

func checkLog(t *testing.T, what string, log []Entry, want []Entry) {
	t.Helper()
	if len(log) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(log), len(want))
	}
	for i := range want {
		if log[i].Term != want[i].Term || !bytes.Equal(log[i].Cmd, want[i].Cmd) {
			t.Fatalf("%s: entry %d = {%d %q}, want {%d %q}", what, i, log[i].Term, log[i].Cmd, want[i].Term, want[i].Cmd)
		}
	}
}

// TestLoadsJSONEraStorage opens a journal written at commit aaf8a05, when
// records were JSON: state, a snapshot checkpoint with its tail, appends
// that overwrite a suffix, batch commands as entries. It must load as its
// writer left it, take binary records on top, and load the mixed journal;
// a snapshot checkpoint then leaves binary records only.
func TestLoadsJSONEraStorage(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "json_era_storage"), dir)
	fs, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	term, voted, snap, log, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if term != 3 || voted != "n2" || snap.Index != 2 || snap.Term != 1 || string(snap.Data) != "\x00\xff{x" {
		t.Fatalf("state %d %q, snapshot %+v", term, voted, snap)
	}
	jsonEra := []Entry{
		{Term: 1, Cmd: []byte(`{"id":"b-3","reqs":[{"tx":"deposit","in":{"amt":{"k":1,"i":3},"k":{"k":1,"i":3}}}]}`)},
		{Term: 2, Cmd: []byte(`{"id":"b-4","reqs":[{"tx":"deposit","in":{"amt":{"k":1,"i":4},"k":{"k":1,"i":4}}}]}`)},
		{Term: 3, Cmd: []byte(`{"reqs":[{"tx":"deposit","in":{"amt":{"k":1,"i":6},"k":{"k":1,"i":6}}}]}`)},
	}
	checkLog(t, "JSON journal", log, jsonEra)

	// Binary records on top: an append, one that overwrites the last JSON
	// entry and the binary one after it, a new vote.
	if err := fs.Append(6, []Entry{{Term: 3, Cmd: []byte("binary-6")}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(5, []Entry{{Term: 4, Cmd: []byte("binary-5")}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveState(4, "n0"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err = OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	term, voted, snap, log, err = fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if term != 4 || voted != "n0" || snap.Index != 2 {
		t.Fatalf("mixed journal: state %d %q, snapshot %+v", term, voted, snap)
	}
	mixed := append(jsonEra[:2:2], Entry{Term: 4, Cmd: []byte("binary-5")})
	checkLog(t, "mixed journal", log, mixed)

	if err := fs.SaveSnapshot(Snapshot{Index: 3, Term: 1, Data: []byte("s3")}, log[1:]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Replay(dir, func(p []byte) error {
		if len(p) > 0 && p[0] == '{' {
			t.Errorf("JSON record %s survived the checkpoint", p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fs, err = OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs.Close() }()
	term, voted, snap, log, err = fs.Load()
	if err != nil || term != 4 || voted != "n0" || snap.Index != 3 || string(snap.Data) != "s3" {
		t.Fatalf("after checkpoint: %d %q %+v %v", term, voted, snap, err)
	}
	checkLog(t, "after checkpoint", log, mixed[1:])
}
