package engine

import (
	"maps"
	"slices"
	"testing"

	"prognosticator/internal/profile"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// Tests for §III-C client-side prediction: pivot-free DTs split preparation
// into an input-only direct part and a pivot-dependent remainder, and the
// split path must be bit-identical to the full pivot-read path.

func TestRegistryPivotFreeClassification(t *testing.T) {
	reg := bankRegistry(t)
	want := map[string]bool{
		"chase":    true,  // straight-line DT: traversal trivially pivot-free
		"redirect": true,  // same, with a write-back of the pivot record
		"deposit":  false, // IT: nothing to split
		"repoint":  false, // IT
		"audit":    false, // ROT
	}
	for tx, w := range want {
		if got := reg.PivotFree[tx]; got != w {
			t.Errorf("PivotFree[%s] = %v, want %v", tx, got, w)
		}
	}
}

// countingReader wraps a PivotReader and counts ReadPivot calls.
type countingReader struct {
	inner profile.PivotReader
	calls int
}

func (c *countingReader) ReadPivot(k value.Key, field string) (value.Value, bool) {
	c.calls++
	if c.inner == nil {
		return value.Value{}, false
	}
	return c.inner.ReadPivot(k, field)
}

// TestSplitInstantiationMatchesFull checks, at the profile level, that the
// split instantiation reproduces the full one — same key multiset, same
// pivot observations — with the direct part first, whether it is evaluated
// in the same traversal or handed in, and zero pivot reads for the direct
// part alone.
func TestSplitInstantiationMatchesFull(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	prof := reg.Profiles["chase"]
	if !prof.PivotFreeTraversal() {
		t.Fatal("chase profile should have a pivot-free traversal")
	}
	inputs := ival("p", 3, "amt", 10)
	snap := st.ViewAt(st.Epoch())

	full, err := prof.Instantiate(inputs, snap)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := prof.InstantiateDirect(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Pivots) != 0 {
		t.Fatalf("direct part recorded pivot observations: %v", direct.Pivots)
	}
	if len(direct.Reads)+len(direct.Writes) == 0 {
		t.Fatal("chase has direct accesses (GET PTR[p]); direct part is empty")
	}
	for _, given := range []*profile.KeySet{nil, direct} {
		counting := &countingReader{inner: snap}
		split, err := prof.InstantiateSplit(inputs, counting, given)
		if err != nil {
			t.Fatal(err)
		}
		if counting.calls == 0 {
			t.Fatal("split instantiation read no pivots; chase must read PTR")
		}
		if !samePivots(split.Pivots, full.Pivots) {
			t.Fatalf("pivot observations differ:\nsplit: %v\nfull:  %v", split.Pivots, full.Pivots)
		}
		if got, want := keyEncSet(split.Reads), keyEncSet(full.Reads); !maps.Equal(got, want) {
			t.Fatalf("read sets differ: %v vs %v", got, want)
		}
		if got, want := keyEncSet(split.Writes), keyEncSet(full.Writes); !maps.Equal(got, want) {
			t.Fatalf("write sets differ: %v vs %v", got, want)
		}
		dr, dw := split.Reads[:split.DirectReads], split.Writes[:split.DirectWrites]
		if !sameKeys(dr, direct.Reads) || !sameKeys(dw, direct.Writes) ||
			split.DirectReads != direct.DirectReads || split.DirectWrites != direct.DirectWrites || len(direct.Pivots) != 0 {
			t.Fatalf("direct prefix differs:\nsplit:  %v %v\ndirect: %v", dr, dw, direct)
		}
	}
}

// sameKeys reports whether a and b hold the same keys in the same order,
// compared by encoding: a key's parts are values, which only Equal compares.
func sameKeys(a, b []value.Key) bool {
	return slices.EqualFunc(a, b, func(x, y value.Key) bool { return x.Encode() == y.Encode() })
}

// samePivots compares pivot observations by key encoding, field and value.
func samePivots(a, b []profile.PivotObservation) bool {
	return slices.EqualFunc(a, b, func(x, y profile.PivotObservation) bool {
		return x.Key.Encode() == y.Key.Encode() && x.Field == y.Field && x.Value.Equal(y.Value)
	})
}

func keyEncSet(keys []value.Key) map[value.Encoded]int {
	m := map[value.Encoded]int{}
	for _, k := range keys {
		m[k.Encode()]++
	}
	return m
}

// TestDirectPreparationBitIdentical executes the same randomized batch
// sequence on the split-preparation engine and on an engine forced onto the
// full pivot-read path, and requires identical store state and abort counts
// — across fail modes, so MF re-preparation rounds also go through the
// direct-key cache. The direct keys the outcomes report show that each
// engine took the path it was meant to.
func TestDirectPreparationBitIdentical(t *testing.T) {
	batches := randomBatches(7, 10, 40)
	for _, cfg := range []Config{
		{Queue: QueueMulti, Fail: FailReenqueue, Workers: 4},
		{Queue: QueueMulti, Fail: FailSequential, Workers: 4},
		{Queue: QueueSingle, Fail: FailReenqueue, Workers: 2},
	} {
		regSplit := bankRegistry(t)
		stSplit := bankStore()
		hashSplit, abortsSplit, directSplit := runDirect(t, New(regSplit, stSplit, cfg), stSplit, batches)

		// The engine reads the flag from its own catalog entry, not from
		// the exported PivotFree map.
		regFull := bankRegistry(t)
		for _, tx := range regFull.txns {
			tx.pivotFree = false
		}
		stFull := bankStore()
		hashFull, abortsFull, directFull := runDirect(t, New(regFull, stFull, cfg), stFull, batches)

		if directSplit == 0 || directFull != 0 {
			t.Fatalf("%s: direct keys: split %d (want > 0), full %d (want 0)", cfg.VariantName(), directSplit, directFull)
		}
		if hashSplit != hashFull {
			t.Errorf("%s: state hash differs: split %x vs full %x", cfg.VariantName(), hashSplit, hashFull)
		}
		if abortsSplit != abortsFull {
			t.Errorf("%s: aborts differ: split %d vs full %d", cfg.VariantName(), abortsSplit, abortsFull)
		}
	}
}

// runDirect is runAll that also sums the direct keys the outcomes report.
func runDirect(t *testing.T, ex Executor, st *store.Store, batches [][]Request) (hash uint64, aborts, direct int) {
	t.Helper()
	for _, b := range batches {
		res, err := ex.ExecuteBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		aborts += res.Aborts
		for _, o := range res.Outcomes {
			direct += o.DirectKeys
		}
	}
	return st.StateHash(st.Epoch()), aborts, direct
}

// TestDirectKeysReported checks the outcome accounting: pivot-free DTs
// report their client-side predicted keys, everything else reports zero.
func TestDirectKeysReported(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Workers: 2})
	res, err := e.ExecuteBatch([]Request{
		req(1, "chase", ival("p", 2, "amt", 5)),
		req(2, "deposit", ival("k", 7, "amt", 5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TxOutcome{}
	for _, o := range res.Outcomes {
		byName[o.TxName] = o
	}
	// chase: GET PTR[p] is direct; GET/PUT ACC[tgt] are pivot-dependent.
	if byName["chase"].DirectKeys != 1 {
		t.Errorf("chase DirectKeys = %d, want 1", byName["chase"].DirectKeys)
	}
	if byName["deposit"].DirectKeys != 0 {
		t.Errorf("deposit DirectKeys = %d, want 0 (IT does not use the split)", byName["deposit"].DirectKeys)
	}
}
