package replica

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/raft"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/wal"
)

// TestInstallsMapEraSnapshot installs a snapshot file written at commit
// 1f56cba, when a record was a Go map and a store chain a slice of versions
// with a deleted flag: rows, scalars, nested and empty records and lists,
// strings that need JSON and key escaping, and a key deleted before the
// capture. The file must load and restore to the state hash that commit
// printed. Its payload was JSON, written before snapshots were binary; the
// file now holds the re-encoding that commit da95f24 made of it in the first
// binary format, whose two batch IDs load as sessions. A capture of the
// restored store is written in the current format, with sessions in place
// of the IDs and the dedup watermark, so it is pinned by its own digest; it
// must equal the re-encoding of what the file holds.
func TestInstallsMapEraSnapshot(t *testing.T) {
	dir := filepath.Join("testdata", "map_era_snapshot")
	snap, err := LoadSnapshotFile(dir)
	if err != nil || snap == nil {
		t.Fatalf("LoadSnapshotFile = %v, %v", snap, err)
	}
	if snap.Index != 7 || snap.Batches != 3 || len(snap.Sessions) != 2 || snap.Sessions["b-7"].Applied[0] != 7 {
		t.Fatalf("metadata = %+v", snap)
	}
	st := store.New()
	RestoreStore(st, snap)
	if got, want := st.StateHash(st.Epoch()), uint64(0x4cb366a31944c7d0); got != want {
		t.Fatalf("restored state hashes to %#x, its writer printed %#x", got, want)
	}
	if st.Len() != 10 {
		t.Fatalf("Len = %d, want 10", st.Len())
	}
	if _, ok := st.Get(st.Epoch(), value.NewKey("Gone", value.Int(1))); ok {
		t.Fatal("a key deleted before the capture is back")
	}
	row, ok := st.Get(st.Epoch(), value.NewKey("a/b%", value.Str("x/y"), value.Bool(true)))
	if inner, _ := row.Field("inner"); !ok || inner.String() != "{e:{},n:-9223372036854775808}" {
		t.Fatalf("escaped-key row = %v, %v", row, ok)
	}

	file, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	snap.Pairs = CaptureStore(st)
	enc, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(enc)), "577c0e3c2801d71affdbd116b0bf69b05028296b00b53e4582c6d112444d9683"; got != want {
		t.Errorf("re-encoding has digest %s, pinned %s", got, want)
	}
	if !bytes.Equal(file, enc) {
		t.Error("the capture does not reproduce what the file holds")
	}
	again, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	st2 := store.New()
	RestoreStore(st2, again)
	if got, want := st2.StateHash(st2.Epoch()), uint64(0x4cb366a31944c7d0); got != want || again.Sessions["b-6"].Applied[0] != 6 {
		t.Fatalf("re-encoding restores to %#x (sessions %v), want %#x", got, again.Sessions, want)
	}
}

// TestRecoversJSONEraSnapshot composes a journal from data written at
// commit aaf8a05, when batches and snapshots were JSON: a snapshot at index
// 4, then a binary duplicate of b-3 at 5 and the JSON batches that commit's
// replica logged at 6 and 7, as raft holds them. Only the binary encodings
// are read, so recovery must refuse it, whether the snapshot would come from
// the journal or from the file beside it, and a cluster booting over a data
// directory holding it must fail without changing a byte there.
func TestRecoversJSONEraSnapshot(t *testing.T) {
	fixture := filepath.Join("testdata", "json_era_recovery")
	snapFile := filepath.Join(fixture, "snap", snapName(4))
	snapData, err := os.ReadFile(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[uint64][]byte{}
	if _, err := wal.Replay(filepath.Join(fixture, "wal"), func(p []byte) error {
		// That commit framed a logged batch as its 8-byte raft index, then
		// the command.
		cmds[binary.LittleEndian.Uint64(p)] = p[8:]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dup, err := sequencer.EncodeBatchID("b-3", []engine.Request{
		{TxName: "deposit", Inputs: map[string]value.Value{"k": value.Int(1), "amt": value.Int(99)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(t, 1, nil)
	cfg.DataDir = t.TempDir()
	dir := filepath.Join(cfg.DataDir, "replica-0", "raft")
	fs, err := raft.OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveSnapshot(raft.Snapshot{Index: 4, Term: 1, Data: snapData}, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(5, []raft.Entry{{Term: 1, Cmd: dup}, {Term: 1, Cmd: cmds[6]}, {Term: 1, Cmd: cmds[7]}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveApplied(7); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	copyDir(t, filepath.Dir(snapFile), filepath.Join(cfg.DataDir, "replica-0", "snap"))

	reg := testRegistry(t)
	for _, snapDir := range []string{"", filepath.Dir(snapFile)} {
		st := store.New()
		rep, err := RecoverWithSnapshot(dir, snapDir, engine.New(reg, st, engine.Config{Workers: 2}), st)
		if err == nil || !strings.Contains(err.Error(), "snapshot format 0x7b") {
			t.Fatalf("snapshot dir %q: recovered %+v, %v", snapDir, rep, err)
		}
	}
	before := readTree(t, cfg.DataDir)
	if c, err := NewCluster(cfg); err == nil || !strings.Contains(err.Error(), "snapshot format 0x7b") {
		if c != nil {
			c.Stop()
		}
		t.Fatalf("NewCluster over a JSON-era data directory: %v", err)
	}
	if after := readTree(t, cfg.DataDir); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Fatalf("the refused boot changed the data directory: %d entries before, %d after", len(before), len(after))
	}
}

// readTree returns every directory (as a nil entry) and file under root,
// by path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			tree[path] = nil
			return err
		}
		tree[path], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestBootsTwoLogDataDir boots a data directory written at commit 3e99bb4,
// when each replica kept a log of its own beside raft's: three replicas
// that took 6 batches, with a snapshot at 4 and both logs holding 5 and 6.
// The journals hold no applied hints, and the wal directories are ignored,
// so each replica boots at its snapshot. Raft has no leader no-op: 5 and 6
// apply once the new leader commits an entry of its own term, the batch the
// test submits. The cluster must then equal a run that never restarted.
func TestBootsTwoLogDataDir(t *testing.T) {
	cfg := clusterConfig(t, 3, nil)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = 4
	for _, id := range []string{"replica-0", "replica-1", "replica-2"} {
		for _, d := range []string{"raft", "snap", "wal"} {
			copyDir(t, filepath.Join("testdata", "two_log_datadir", id, d), filepath.Join(cfg.DataDir, id, d))
		}
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < c.Size(); i++ {
		if rec := c.LastRecovery(i); !rec.FromSnapshot || rec.Batches != 4 || rec.LastIndex != 4 {
			t.Fatalf("replica %d recovered %+v, want the snapshot at 4 and nothing from its wal directory", i, rec)
		}
	}
	submitDeposits(t, c, 6, 1)
	if err := c.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(clusterConfig(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	submitDeposits(t, ref, 0, 7)
	want := ref.ReplicaAt(0).StateHash()
	for i := 0; i < c.Size(); i++ {
		if got, n := c.ReplicaAt(i).StateHash(), c.ReplicaAt(i).Batches(); got != want || n != 7 {
			t.Fatalf("replica %d reached %#x after %d batches, the reference %#x after 7", i, got, n, want)
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

// framed wraps payload in a snapshot's CRC frame, so that a test reaches the
// payload decoder with bytes the frame check passes.
func framed(payload []byte) []byte {
	out := make([]byte, snapHeader, snapHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, snapCRC))
	return append(out, payload...)
}

// TestSnapshotRejectsHostilePayload: payloads whose CRC frame is intact but
// whose content the decoder must refuse, one per class, in both formats.
func TestSnapshotRejectsHostilePayload(t *testing.T) {
	sessions := Sessions{"a": {Low: 1, Applied: map[uint64]uint64{1: 1}}}
	enc, err := EncodeSnapshot(&StoreSnapshot{Index: 3, Batches: 2, Sessions: sessions,
		Pairs: []SnapPair{{Key: "k", Val: value.Int(5)}}})
	if err != nil {
		t.Fatal(err)
	}
	valid := enc[snapHeader:]
	if got := hex.EncodeToString(valid); got != "02"+"03"+"04"+"01"+"0161"+"01"+"01"+"0101"+"01"+"016b"+"010a" {
		t.Fatalf("payload layout %s", got)
	}
	// The first format held batch IDs and a watermark: each ID loads as a
	// session whose Seq 0 executed at the ID's index.
	v1 := []byte{snapFormatV1, 3, 4, 1, 1, 1, 'a', 1, 1, 1, 'k', 1, 10}
	if s, err := DecodeSnapshot(framed(v1)); err != nil || s.Index != 3 || s.Batches != 2 ||
		!reflect.DeepEqual(s.Sessions, Sessions{"a": {Applied: map[uint64]uint64{0: 1}}}) || len(s.Pairs) != 1 {
		t.Fatalf("first-format payload decoded to %+v, %v", s, err)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated", valid[:len(valid)-1]},
		{"unknown format", append([]byte{0x03}, valid[1:]...)},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"session count past end", []byte{snapFormat, 3, 4, 0x80, 0x80, 0x40, 1, 'a', 0, 0}},
		{"entry count past end", []byte{snapFormat, 3, 4, 1, 1, 'a', 0, 0x80, 0x80, 0x40, 1, 1, 0}},
		{"sessions out of order", []byte{snapFormat, 3, 4, 2, 1, 'b', 0, 0, 1, 'a', 0, 0, 0}},
		{"seqs out of order", []byte{snapFormat, 3, 4, 1, 1, 'a', 0, 2, 2, 1, 1, 1, 0}},
		{"seq below low", []byte{snapFormat, 3, 4, 1, 1, 'a', 2, 1, 1, 1, 0}},
		{"pair count past end", []byte{snapFormat, 3, 4, 0, 0x80, 0x80, 0x40, 1, 'k', 0}},
		{"key length past end", []byte{snapFormat, 3, 4, 0, 1, 0x7f, 'k', 0}},
		{"unknown value tag", []byte{snapFormat, 3, 4, 0, 1, 1, 'k', 7}},
		{"keys out of order", []byte{snapFormat, 3, 4, 0, 2, 1, 'k', 0, 1, 'j', 0}},
		{"key twice", []byte{snapFormat, 3, 4, 0, 2, 1, 'k', 0, 1, 'k', 0}},
		{"first format: ID count past end", []byte{snapFormatV1, 3, 4, 1, 0x80, 0x80, 0x40, 1, 'a', 1}},
		{"first format: IDs out of order", []byte{snapFormatV1, 3, 4, 1, 2, 1, 'b', 1, 1, 'a', 1, 0}},
	}
	for _, c := range cases {
		if s, err := DecodeSnapshot(framed(c.payload)); err == nil {
			t.Errorf("%s: %x decoded to %+v", c.name, c.payload, s)
		}
	}
	// A million pairs claimed in nine bytes: refused before they are made.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeSnapshot(framed([]byte{snapFormat, 3, 4, 0, 0x80, 0x80, 0x40, 1, 'k'}))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; err == nil || got > 4096 {
		t.Fatalf("err %v after allocating %d bytes", err, got)
	}
	// Two pairs under one key are never written.
	if _, err := EncodeSnapshot(&StoreSnapshot{Pairs: []SnapPair{{Key: "k"}, {Key: "k"}}}); err == nil {
		t.Fatal("encoded a snapshot holding one key twice")
	}
}
