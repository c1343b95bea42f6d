package wal

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// frame builds one validly checksummed WAL frame around payload.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], frameCRC(out[0:4], payload))
	copy(out[frameHeader:], payload)
	return out
}

// writeSegments lays seg0/seg1 down as raw segment files (skipping empty
// ones), bypassing the Log so the fuzzer controls every byte on disk.
func writeSegments(t *testing.T, dir string, segs ...[]byte) {
	t.Helper()
	for i, data := range segs {
		if len(data) == 0 {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRepaired asserts the invariant Repair promises: whatever the on-disk
// bytes were, the repaired log is a strictly replayable clean prefix that a
// reopened Log can extend.
func checkRepaired(t *testing.T, dir string, intactBefore int) {
	t.Helper()
	clean, err := Verify(dir)
	if err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
	if clean.Truncated {
		t.Fatalf("log still corrupt after repair: %+v", clean)
	}
	if clean.Records != intactBefore {
		t.Fatalf("repair changed the intact prefix: %d records, want %d", clean.Records, intactBefore)
	}
	replayed := 0
	if _, err := Replay(dir, func([]byte) error { replayed++; return nil }); err != nil {
		t.Fatalf("replay after repair: %v", err)
	}
	if replayed != intactBefore {
		t.Fatalf("replayed %d records after repair, want %d", replayed, intactBefore)
	}
	// The repaired log must accept appends that extend the clean prefix.
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	marker := []byte("post-repair-append")
	if err := l.Append(marker); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var last []byte
	total := 0
	if _, err := Replay(dir, func(p []byte) error { total++; last = append([]byte(nil), p...); return nil }); err != nil {
		t.Fatalf("replay after append: %v", err)
	}
	if total != intactBefore+1 || !bytes.Equal(last, marker) {
		t.Fatalf("append did not extend the repaired prefix: %d records, last %q", total, last)
	}
}

// FuzzWALRepair feeds arbitrary bytes to the log scanner as two on-disk
// segments: Verify and Repair must never panic, and after Repair the log must
// be a clean, strictly replayable prefix (exactly the records Verify found
// intact) that a reopened Log can extend.
func FuzzWALRepair(f *testing.F) {
	valid := frame([]byte("alpha"))
	torn := frame([]byte("beta-record"))[:10]
	flipped := frame([]byte("gamma"))
	flipped[frameHeader+2] ^= 0x40
	var hugeLen [frameHeader]byte
	binary.LittleEndian.PutUint32(hugeLen[0:4], MaxRecordSize+1)
	f.Add([]byte{}, []byte{})
	f.Add(valid, []byte{})
	f.Add(append(append([]byte{}, valid...), torn...), valid)
	f.Add(flipped, valid)
	f.Add(hugeLen[:], []byte("trailing garbage"))
	f.Add(append(append([]byte{}, valid...), valid...), append(append([]byte{}, flipped...), valid...))
	f.Fuzz(func(t *testing.T, seg0, seg1 []byte) {
		dir := t.TempDir()
		writeSegments(t, dir, seg0, seg1)
		before, err := Verify(dir)
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		repaired, err := Repair(dir)
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		if repaired.Records != before.Records || repaired.Truncated != before.Truncated {
			t.Fatalf("repair scan disagrees with verify: %+v vs %+v", repaired, before)
		}
		checkRepaired(t, dir, before.Records)
	})
}

// TestWALRepairSeededCorruption is the deterministic CI face of the fuzz
// target: seeded random corruption (bit flips, truncation, garbage splice)
// over a real multi-segment log must always leave Repair with a strictly
// replayable prefix of the original records, in order.
func TestWALRepairSeededCorruption(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		var payloads [][]byte
		for i := 0; i < 40; i++ {
			p := make([]byte, 16+rng.Intn(48))
			rng.Read(p)
			payloads = append(payloads, p)
			if err := l.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		paths, err := SegmentPaths(dir)
		if err != nil || len(paths) == 0 {
			t.Fatalf("segments: %v, %v", paths, err)
		}
		victim := paths[rng.Intn(len(paths))]
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0: // bit flip
			data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
		case 1: // torn tail
			data = data[:rng.Intn(len(data))]
		case 2: // garbage splice at a random point
			at := rng.Intn(len(data))
			junk := make([]byte, 1+rng.Intn(32))
			rng.Read(junk)
			data = append(append(append([]byte{}, data[:at]...), junk...), data[at:]...)
		}
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatal(err)
		}

		if _, err := Repair(dir); err != nil {
			t.Fatalf("seed %d: repair: %v", seed, err)
		}
		i := 0
		_, err = Replay(dir, func(p []byte) error {
			if i >= len(payloads) || !bytes.Equal(p, payloads[i]) {
				t.Fatalf("seed %d: record %d is not a prefix of the original log", seed, i)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: replay after repair: %v", seed, err)
		}
	}
}
