package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

func collect(t *testing.T, dir string) [][]byte {
	t.Helper()
	var out [][]byte
	if _, err := Replay(dir, func(p []byte) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		out = append(out, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	want := [][]byte{[]byte("one"), []byte("two"), []byte(""), []byte("four")}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRotationAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 64})
	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%02d-padding-padding", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	got := collect(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReopenAppendsNewSegment(t *testing.T) {
	dir := t.TempDir()
	l1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l1.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	if err := l2.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("replay after reopen = %q", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("to-be-torn")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: chop 3 bytes off the file.
	path := filepath.Join(dir, segmentName(0))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	if len(got) != 1 || string(got[0]) != "intact" {
		t.Fatalf("replay of torn log = %q", got)
	}
}

func TestCorruptPayloadStopsSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"aaaa", "bbbb", "cccc"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the second record's payload.
	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := frameHeader + 4 + frameHeader // into second payload
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	if len(got) != 1 || string(got[0]) != "aaaa" {
		t.Fatalf("replay of corrupted log = %q", got)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestTooLargeRecord(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	if err := l.Append(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append = %v", err)
	}
}

func TestCorruptionStopsReplayAcrossSegments(t *testing.T) {
	// Corruption in an EARLIER segment must stop replay entirely: records in
	// later segments are unreachable until Repair, never replayed over a gap.
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Flip a payload byte in the second segment.
	path := filepath.Join(dir, segmentName(segs[1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	if len(got) != 1 {
		t.Fatalf("replay past corruption: got %d records, want 1", len(got))
	}
	st, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.BadSegment != segs[1] || st.BadOffset != 0 {
		t.Fatalf("verify = %+v", st)
	}
	if st.LostBytes == 0 {
		t.Fatal("verify reported no lost bytes")
	}
}

func TestRepairTruncatesCorruptSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"aaaa", "bbbb", "cccc"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the second record, then repair.
	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := frameHeader + 4 + frameHeader
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Records != 1 || st.LostBytes != 2*(frameHeader+4) {
		t.Fatalf("repair = %+v", st)
	}
	// The repaired log replays cleanly and new appends extend the prefix.
	l2 := openT(t, dir, Options{})
	if err := l2.Append([]byte("dddd")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	if len(got) != 2 || string(got[0]) != "aaaa" || string(got[1]) != "dddd" {
		t.Fatalf("replay after repair = %q", got)
	}
	st2, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Truncated {
		t.Fatalf("repaired log still corrupt: %+v", st2)
	}
}

// TestRepairSyncsCutAndRemovals: a Repair that cuts one segment and removes
// the segments after it fsyncs the cut segment once and the directory once.
// Only the fsync calls are counted; no machine crash is simulated.
func TestRepairSyncsCutAndRemovals(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for _, rec := range []string{"aaaa", "bbbb"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("later")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+4+frameHeader] ^= 0xFF // the second record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs, err := listSegments(dir); err != nil || len(segs) != 1 || !st.Truncated {
		t.Fatalf("repair = %+v, segments left %v (%v), want one cut segment", st, segs, err)
	}
	if f, d := st.Syncs(); f != 1 || d != 1 {
		t.Fatalf("repair issued %d segment and %d directory fsyncs, want 1 and 1", f, d)
	}
	st, err = Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if f, d := st.Syncs(); f != 0 || d != 0 {
		t.Fatalf("repair of a clean log issued %d segment and %d directory fsyncs", f, d)
	}
}

func TestCRCCoversLengthHeader(t *testing.T) {
	// A bit flip in the length field alone must be detected even when the
	// payload bytes it frames happen to be readable.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("ijklmnop")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x04 // length 8 -> 12: would swallow the next frame's header
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir); len(got) != 0 {
		t.Fatalf("corrupt length field yielded records: %q", got)
	}
}

func TestSyncPolicies(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncAlways})
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Syncs(); got != 3 {
		t.Fatalf("SyncAlways issued %d fsyncs, want 3", got)
	}

	if err := l.AppendNoSync([]byte("hint")); err != nil {
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 3 {
		t.Fatalf("AppendNoSync on a SyncAlways log issued an fsync (%d, want 3)", got)
	}
	if got := collect(t, dir); len(got) != 4 || string(got[3]) != "hint" {
		t.Fatalf("replayed %q, want the unsynced record last", got)
	}

	l3 := openT(t, t.TempDir(), Options{})
	if err := l3.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l3.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := l3.Syncs(); got != 0 {
		t.Fatalf("SyncOS issued %d fsyncs, want 0", got)
	}
}

// TestRotateSyncsUnsyncedRecords: on a SyncAlways log, closing a segment
// that holds an unsynced record costs exactly one fsync, whether Rotate or
// the size threshold closes it; a segment whose records are all synced
// closes without one. Otherwise a machine crash could tear the unsynced
// record while later segments' fsynced records survive, and Repair, which
// cuts the log at the first bad frame, would discard those.
func TestRotateSyncsUnsyncedRecords(t *testing.T) {
	l := openT(t, t.TempDir(), Options{Sync: SyncAlways, SegmentSize: 64})
	step := func(what string, op func() error, want int64) {
		t.Helper()
		before := l.Syncs()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if got := l.Syncs() - before; got != want {
			t.Fatalf("%s: %d fsyncs, want %d", what, got, want)
		}
	}
	step("unsynced write", func() error { return l.AppendNoSync([]byte("hint")) }, 0)
	step("rotate after it", l.Rotate, 1)
	step("rotate an empty segment", l.Rotate, 0)
	step("synced write", func() error { return l.Append([]byte("entry")) }, 1)
	step("rotate after it", l.Rotate, 0)
	step("unsynced write filling the segment", func() error { return l.AppendNoSync(make([]byte, 64)) }, 1)
}

// TestDirSyncOnSegmentCreateAndDrop: fsync(2) on a segment does not make its
// directory entry durable, so a SyncAlways log fsyncs its directory once
// after creating a segment and once after a drop that removed any, and never
// counts these among Syncs. Without them a machine crash after a compaction
// could keep the drops and lose the segment holding the checkpoint.
func TestDirSyncOnSegmentCreateAndDrop(t *testing.T) {
	l := openT(t, t.TempDir(), Options{Sync: SyncAlways})
	if got := l.DirSyncs(); got != 1 {
		t.Fatalf("Open: %d directory syncs, want 1", got)
	}
	step := func(what string, op func() error, want int64) {
		t.Helper()
		before := l.DirSyncs()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if got := l.DirSyncs() - before; got != want {
			t.Fatalf("%s: %d directory syncs, want %d", what, got, want)
		}
	}
	step("rotate", l.Rotate, 1)
	step("drop below the current segment", func() error { return l.DropSegmentsBelow(l.CurrentSegment()) }, 1)
	step("drop that removes nothing", func() error { return l.DropSegmentsBelow(l.CurrentSegment()) }, 0)
	if got := l.Syncs(); got != 0 {
		t.Fatalf("directory syncs counted among Syncs (%d)", got)
	}

	lazy := openT(t, t.TempDir(), Options{})
	if err := lazy.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := lazy.DropSegmentsBelow(lazy.CurrentSegment()); err != nil {
		t.Fatal(err)
	}
	if got := lazy.DirSyncs(); got != 0 {
		t.Fatalf("SyncOS log issued %d directory syncs, want 0", got)
	}
}

func TestSegmentPaths(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 16})
	for i := 0; i < 4; i++ {
		if err := l.Append([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := SegmentPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("segment paths = %v", paths)
	}
	// Missing dir: empty, no error.
	paths, err = SegmentPaths(filepath.Join(dir, "nope"))
	if err != nil || len(paths) != 0 {
		t.Fatalf("missing dir = %v, %v", paths, err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	_, err := Replay(dir, func([]byte) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("replay error = %v", err)
	}
}

func TestReplayEmptyAndMissingDir(t *testing.T) {
	if _, err := Replay(t.TempDir(), func([]byte) error { return errors.New("no") }); err != nil {
		t.Fatalf("empty dir replay = %v", err)
	}
	// Missing directory is not an error (fresh replica).
	if _, err := Replay(filepath.Join(t.TempDir(), "nope"), func([]byte) error { return nil }); err != nil {
		t.Fatalf("missing dir replay = %v", err)
	}
}

func TestIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bogus.wal"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := openT(t, dir, Options{})
	if err := l.Append([]byte("real")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	// bogus.wal has no valid frames; notes.txt skipped entirely.
	if len(got) != 1 || string(got[0]) != "real" {
		t.Fatalf("replay with foreign files = %q", got)
	}
}
