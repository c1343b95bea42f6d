package replica

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// TestInstallsMapEraSnapshot installs a snapshot file written at commit
// 1f56cba, when a record was a Go map and a store chain a slice of versions
// with a deleted flag: rows, scalars, nested and empty records and lists,
// strings that need JSON and key escaping, and a key deleted before the
// capture. The file must load, restore to the state hash that commit
// printed, and re-encode to the very same bytes.
func TestInstallsMapEraSnapshot(t *testing.T) {
	dir := filepath.Join("testdata", "map_era_snapshot")
	snap, err := LoadSnapshotFile(dir)
	if err != nil || snap == nil {
		t.Fatalf("LoadSnapshotFile = %v, %v", snap, err)
	}
	if snap.Index != 7 || snap.Batches != 3 || snap.Watermark != 2 || snap.AppliedIDs["b-7"] != 7 {
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

	want, err := os.ReadFile(filepath.Join(dir, snapName(7)))
	if err != nil {
		t.Fatal(err)
	}
	snap.Pairs = CaptureStore(st)
	got, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded snapshot differs from the file:\n got %s\nwant %s", got[snapHeader:], want[snapHeader:])
	}
}
