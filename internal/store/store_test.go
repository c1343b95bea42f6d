package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"prognosticator/internal/value"
)

func k(i int64) value.Key     { return value.NewKey("T", value.Int(i)) }
func rec(i int64) value.Value { return value.Record(map[string]value.Value{"v": value.Int(i)}) }
func vOf(v value.Value) int64 { f, _ := v.Field("v"); return f.MustInt() }

func TestBasicPutGet(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(10))
	got, ok := s.Get(0, k(1))
	if !ok || vOf(got) != 10 {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	if _, ok := s.Get(0, k(2)); ok {
		t.Fatal("missing key must report false")
	}
}

func TestEpochVisibility(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(10))
	e1 := s.BeginEpoch()
	if e1 != 1 {
		t.Fatalf("first epoch = %d", e1)
	}
	s.Put(e1, k(1), rec(20))
	// Snapshot at 0 still sees the old value; epoch 1 sees the new.
	if got, _ := s.Get(0, k(1)); vOf(got) != 10 {
		t.Fatalf("epoch0 read = %v", got)
	}
	if got, _ := s.Get(1, k(1)); vOf(got) != 20 {
		t.Fatalf("epoch1 read = %v", got)
	}
	// Future epochs see the latest.
	if got, _ := s.Get(9, k(1)); vOf(got) != 20 {
		t.Fatalf("epoch9 read = %v", got)
	}
}

func TestOverwriteWithinEpoch(t *testing.T) {
	s := New()
	e := s.BeginEpoch()
	s.Put(e, k(1), rec(1))
	s.Put(e, k(1), rec(2))
	if got, _ := s.Get(e, k(1)); vOf(got) != 2 {
		t.Fatalf("same-epoch overwrite = %v", got)
	}
	// Version chain must not grow.
	sh := s.shardFor(k(1).Encode())
	if n := len(sh.items[k(1).Encode()].older); n != 0 {
		t.Fatalf("older versions = %d, want 0", n)
	}
}

func TestDeleteAndTombstone(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(1))
	e := s.BeginEpoch()
	s.Delete(e, k(1))
	if _, ok := s.Get(e, k(1)); ok {
		t.Fatal("deleted key visible at delete epoch")
	}
	if got, ok := s.Get(0, k(1)); !ok || vOf(got) != 1 {
		t.Fatal("old snapshot must still see the value")
	}
}

func TestGC(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(0))
	for i := 1; i <= 5; i++ {
		e := s.BeginEpoch()
		s.Put(e, k(1), rec(int64(i)))
	}
	s.GC(4)
	// Reads at >= 4 still correct.
	if got, _ := s.Get(4, k(1)); vOf(got) != 4 {
		t.Fatalf("epoch4 after GC = %v", got)
	}
	if got, _ := s.Get(5, k(1)); vOf(got) != 5 {
		t.Fatalf("epoch5 after GC = %v", got)
	}
	sh := s.shardFor(k(1).Encode())
	if n := len(sh.items[k(1).Encode()].older); n != 1 {
		t.Fatalf("older versions after GC = %d, want 1", n)
	}
}

func TestGCDropsDeadTombstones(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(1))
	e := s.BeginEpoch()
	s.Delete(e, k(1))
	s.GC(e)
	if s.Len() != 0 {
		t.Fatalf("Len after tombstone GC = %d", s.Len())
	}
	sh := s.shardFor(k(1).Encode())
	if _, ok := sh.items[k(1).Encode()]; ok {
		t.Fatal("tombstone chain must be removed")
	}
}

func TestLen(t *testing.T) {
	s := New()
	for i := int64(0); i < 10; i++ {
		s.Put(0, k(i), rec(i))
	}
	e := s.BeginEpoch()
	s.Delete(e, k(0))
	if got := s.Len(); got != 9 {
		t.Fatalf("Len = %d", got)
	}
}

func TestStateHashDeterministic(t *testing.T) {
	build := func(order []int64) *Store {
		s := New()
		for _, i := range order {
			s.Put(0, k(i), rec(i*i))
		}
		return s
	}
	a := build([]int64{1, 2, 3, 4, 5})
	b := build([]int64{5, 3, 1, 4, 2})
	if a.StateHash(0) != b.StateHash(0) {
		t.Fatal("state hash must be insertion-order independent")
	}
	c := build([]int64{1, 2, 3, 4, 6})
	if a.StateHash(0) == c.StateHash(0) {
		t.Fatal("different states should hash differently")
	}
}

func TestStateHashRespectsEpoch(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(1))
	h0 := s.StateHash(0)
	e := s.BeginEpoch()
	s.Put(e, k(1), rec(2))
	if s.StateHash(0) != h0 {
		t.Fatal("old epoch hash changed by new writes")
	}
	if s.StateHash(e) == h0 {
		t.Fatal("new epoch hash should differ")
	}
}

func TestForEach(t *testing.T) {
	s := New()
	for i := int64(0); i < 5; i++ {
		s.Put(0, k(i), rec(i))
	}
	seen := map[value.Encoded]bool{}
	s.ForEach(0, func(e value.Encoded, v value.Value) { seen[e] = true })
	if len(seen) != 5 {
		t.Fatalf("ForEach visited %d keys", len(seen))
	}
}

func TestReadViewSemantics(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(7))
	e := s.BeginEpoch()
	s.Put(e, k(1), rec(8))
	rv := s.ViewAt(0)
	if rv.Epoch() != 0 {
		t.Fatalf("view epoch = %d", rv.Epoch())
	}
	got, ok := rv.Get(k(1))
	if !ok || vOf(got) != 7 {
		t.Fatalf("read view Get = %v", got)
	}
	pv, found := rv.ReadPivot(k(1), "v")
	if !found || pv.MustInt() != 7 {
		t.Fatalf("ReadPivot = %v,%v", pv, found)
	}
	if missing, found := rv.ReadPivot(k(1), "nope"); !found || missing.MustInt() != 0 {
		t.Fatalf("missing field pivot = %v,%v", missing, found)
	}
	if _, found := rv.ReadPivot(k(99), "v"); found {
		t.Fatal("missing item pivot must report false")
	}
}

func TestReadViewRejectsWrites(t *testing.T) {
	s := New()
	rv := s.ViewAt(0)
	assertPanics(t, func() { rv.Put(k(1), rec(1)) })
	assertPanics(t, func() { rv.Delete(k(1)) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestWriteViewSemantics(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(1))
	e := s.BeginEpoch()
	wv := s.WriterAt(e)
	if wv.Epoch() != e {
		t.Fatalf("write view epoch = %d", wv.Epoch())
	}
	// Sees pre-batch state...
	if got, _ := wv.Get(k(1)); vOf(got) != 1 {
		t.Fatalf("write view initial read = %v", got)
	}
	// ...and its own (and same-batch) writes.
	wv.Put(k(1), rec(5))
	if got, _ := wv.Get(k(1)); vOf(got) != 5 {
		t.Fatalf("write view read-own-write = %v", got)
	}
	if pv, found := wv.ReadPivot(k(1), "v"); !found || pv.MustInt() != 5 {
		t.Fatalf("write view pivot = %v,%v", pv, found)
	}
	wv.Delete(k(1))
	if _, ok := wv.Get(k(1)); ok {
		t.Fatal("deleted through write view but visible")
	}
	// Previous epoch unaffected.
	if got, ok := s.Get(0, k(1)); !ok || vOf(got) != 1 {
		t.Fatal("previous epoch affected by write view")
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	s := New()
	e := s.BeginEpoch()
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				kk := value.NewKey("T", value.Int(int64(w)), value.Int(int64(i)))
				s.Put(e, kk, rec(int64(w*1000+i)))
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			kk := value.NewKey("T", value.Int(int64(w)), value.Int(int64(i)))
			got, ok := s.Get(e, kk)
			if !ok || vOf(got) != int64(w*1000+i) {
				t.Fatalf("w=%d i=%d got %v,%v", w, i, got, ok)
			}
		}
	}
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	s := New()
	for i := int64(0); i < 100; i++ {
		s.Put(0, k(i), rec(i))
	}
	e := s.BeginEpoch()
	var wg sync.WaitGroup
	// Writers update at epoch e; readers at snapshot 0 must always see the
	// original values.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 100; i++ {
				s.Put(e, k(i), rec(i+1000))
			}
		}()
	}
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rv := s.ViewAt(0)
			for i := int64(0); i < 100; i++ {
				got, ok := rv.Get(k(i))
				if !ok || vOf(got) != i {
					errs <- fmt.Errorf("snapshot violated at %d: %v,%v", i, got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPropVersionVisibilityRandom(t *testing.T) {
	// Random history of puts/deletes across epochs; a brute-force oracle
	// tracks the expected visible value per epoch.
	r := rand.New(rand.NewSource(99))
	s := New()
	type entry struct {
		val     int64
		deleted bool
	}
	oracle := map[int64]map[uint64]entry{} // key -> epoch -> last op
	epoch := uint64(0)
	for step := 0; step < 2000; step++ {
		switch r.Intn(10) {
		case 0:
			epoch = s.BeginEpoch()
		case 1, 2:
			ki := int64(r.Intn(20))
			s.Delete(epoch, k(ki))
			if oracle[ki] == nil {
				oracle[ki] = map[uint64]entry{}
			}
			oracle[ki][epoch] = entry{deleted: true}
		default:
			ki := int64(r.Intn(20))
			vv := int64(r.Intn(1000))
			s.Put(epoch, k(ki), rec(vv))
			if oracle[ki] == nil {
				oracle[ki] = map[uint64]entry{}
			}
			oracle[ki][epoch] = entry{val: vv}
		}
	}
	for ki, hist := range oracle {
		for at := uint64(0); at <= epoch; at++ {
			// oracle lookup: newest epoch <= at
			var best *entry
			for e := int64(at); e >= 0; e-- {
				if ent, ok := hist[uint64(e)]; ok {
					best = &ent
					break
				}
			}
			got, ok := s.Get(at, k(ki))
			switch {
			case best == nil || best.deleted:
				if ok {
					t.Fatalf("key %d at %d: expected absent, got %v", ki, at, got)
				}
			default:
				if !ok || vOf(got) != best.val {
					t.Fatalf("key %d at %d: want %d, got %v,%v", ki, at, best.val, got, ok)
				}
			}
		}
	}
}
