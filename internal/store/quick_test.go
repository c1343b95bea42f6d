package store

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prognosticator/internal/value"
)

// testing/quick properties on the MVCC store.

func TestQuickLatestWriteWins(t *testing.T) {
	f := func(key int16, a, b int32) bool {
		s := New()
		k := value.NewKey("Q", value.Int(int64(key)))
		s.Put(0, k, rec(int64(a)))
		e := s.BeginEpoch()
		s.Put(e, k, rec(int64(b)))
		got, ok := s.Get(e, k)
		if !ok {
			return false
		}
		f, _ := got.Field("v")
		old, okOld := s.Get(0, k)
		if !okOld {
			return false
		}
		fo, _ := old.Field("v")
		return f.MustInt() == int64(b) && fo.MustInt() == int64(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeleteHidesOnlyFromLaterEpochs(t *testing.T) {
	f := func(key int16, v int32) bool {
		s := New()
		k := value.NewKey("Q", value.Int(int64(key)))
		s.Put(0, k, rec(int64(v)))
		e := s.BeginEpoch()
		s.Delete(e, k)
		_, okOld := s.Get(0, k)
		_, okNew := s.Get(e, k)
		return okOld && !okNew
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStateHashInsensitiveToWriteOrder(t *testing.T) {
	f := func(keys []int8) bool {
		if len(keys) == 0 {
			return true
		}
		a, b := New(), New()
		for _, k := range keys {
			a.Put(0, value.NewKey("Q", value.Int(int64(k))), rec(int64(k)))
		}
		for i := len(keys) - 1; i >= 0; i-- {
			b.Put(0, value.NewKey("Q", value.Int(int64(keys[i]))), rec(int64(keys[i])))
		}
		return a.StateHash(0) == b.StateHash(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGCPreservesVisibleState(t *testing.T) {
	f := func(writes []uint8) bool {
		s := New()
		k := value.NewKey("Q", value.Int(1))
		epoch := uint64(0)
		for _, w := range writes {
			epoch = s.BeginEpoch()
			s.Put(epoch, k, rec(int64(w)))
		}
		if epoch == 0 {
			return true
		}
		before, okB := s.Get(epoch, k)
		s.GC(epoch)
		after, okA := s.Get(epoch, k)
		return okB == okA && (!okB || before.Equal(after))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refStore is the store as it was before the dirty list: a slice of versions
// with a deleted flag per key, and a GC that sweeps every chain. The
// differential test below holds Store to it.
type refStore struct {
	items map[value.Encoded][]refVersion
	epoch uint64
}

type refVersion struct {
	epoch   uint64
	val     value.Value
	deleted bool
}

func (r *refStore) put(k value.Key, ver refVersion) {
	e := k.Encode()
	vs := r.items[e]
	if n := len(vs); n > 0 && vs[n-1].epoch == ver.epoch {
		vs[n-1] = ver
	} else {
		r.items[e] = append(vs, ver)
	}
}

func (r *refStore) get(epoch uint64, e value.Encoded) (value.Value, bool) {
	vs := r.items[e]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].epoch <= epoch {
			return vs[i].val, !vs[i].deleted
		}
	}
	return value.Value{}, false
}

func (r *refStore) gc(keepFrom uint64) {
	for e, vs := range r.items {
		idx := -1
		for j, v := range vs {
			if v.epoch > keepFrom {
				break
			}
			idx = j
		}
		if idx > 0 {
			vs = vs[idx:]
			r.items[e] = vs
		}
		if len(vs) == 1 && vs[0].deleted {
			delete(r.items, e)
		}
	}
}

func (r *refStore) stateHash(epoch uint64) (hash uint64, live int) {
	for e := range r.items {
		if v, ok := r.get(epoch, e); ok {
			hash += e.Hash()*31 + v.Hash()
			live++
		}
	}
	return hash, live
}

// checkDirtyLists asserts the invariant GC relies on: a shard's dirty list
// names, once each, the keys of the chains flagged dirty, and every chain
// that has history or a tombstone is among them. (A listed chain may be back
// to one live version: a tombstone overwritten within its epoch.)
func checkDirtyLists(t *testing.T, s *Store) (chains int) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		listed := map[value.Encoded]bool{}
		for _, e := range sh.dirty {
			if _, ok := sh.items[e]; listed[e] || !ok {
				t.Fatalf("%s is on the dirty list twice, or has no chain", e)
			}
			listed[e] = true
		}
		for e, c := range sh.items {
			collectable := len(c.older) > 0 || c.tombstone()
			if c.dirty != listed[e] || (collectable && !c.dirty) {
				t.Fatalf("%s: %d older versions, live %v, but dirty flag %v and listed %v",
					e, len(c.older), !c.tombstone(), c.dirty, listed[e])
			}
		}
		chains += len(sh.items)
	}
	return chains
}

// TestDifferentialAgainstFullSweep drives Store and the reference through
// the same random writes, deletes, epochs, collections and restores. The
// collection horizon lags the current epoch by 0, 1 and 5 epochs, as the
// engine, NODO/SEQ and Calvin with staleness 4 run it.
func TestDifferentialAgainstFullSweep(t *testing.T) {
	for _, lag := range []uint64{0, 1, 5} {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			s, ref := New(), &refStore{items: map[value.Encoded][]refVersion{}}
			floor := uint64(0) // the largest horizon collected so far
			for op := 0; op < 400; op++ {
				key := k(int64(r.Intn(12)))
				switch n := r.Intn(100); {
				case n < 45:
					v := rec(r.Int63n(1000))
					s.Put(ref.epoch, key, v)
					ref.put(key, refVersion{epoch: ref.epoch, val: v})
				case n < 60:
					s.Delete(ref.epoch, key)
					ref.put(key, refVersion{epoch: ref.epoch, deleted: true})
				case n < 85:
					ref.epoch++
					if got := s.BeginEpoch(); got != ref.epoch {
						t.Fatalf("BeginEpoch = %d, want %d", got, ref.epoch)
					}
				case n < 98:
					if ref.epoch >= lag {
						floor = max(floor, ref.epoch-lag)
					}
					// Collecting below an earlier horizon must be harmless too.
					s.GC(ref.epoch - min(lag, ref.epoch))
					ref.gc(ref.epoch - min(lag, ref.epoch))
				default:
					items := map[value.Encoded]value.Value{}
					ref.items = map[value.Encoded][]refVersion{}
					for i := r.Intn(8); i > 0; i-- {
						key, v := k(int64(r.Intn(12))), rec(r.Int63n(1000))
						items[key.Encode()] = v
						ref.items[key.Encode()] = []refVersion{{epoch: 1, val: v}}
					}
					s.Restore(items)
					ref.epoch, floor = 1, 1
				}
				if chains := checkDirtyLists(t, s); chains != len(ref.items) {
					t.Fatalf("lag %d seed %d op %d: %d chains resident, the full sweep keeps %d",
						lag, seed, op, chains, len(ref.items))
				}
				for epoch := floor; epoch <= ref.epoch; epoch++ {
					for i := int64(0); i < 12; i++ {
						got, ok := s.Get(epoch, k(i))
						want, wok := ref.get(epoch, k(i).Encode())
						if ok != wok || (ok && !got.Equal(want)) {
							t.Fatalf("lag %d seed %d op %d: Get(%d, %d) = %v,%v, want %v,%v",
								lag, seed, op, epoch, i, got, ok, want, wok)
						}
					}
					hash, live := ref.stateHash(epoch)
					if got := s.StateHash(epoch); got != hash {
						t.Fatalf("lag %d seed %d op %d: StateHash(%d) = %x, want %x", lag, seed, op, epoch, got, hash)
					}
					if epoch == ref.epoch && s.Len() != live {
						t.Fatalf("lag %d seed %d op %d: Len = %d, want %d", lag, seed, op, s.Len(), live)
					}
				}
			}
		}
	}
}

// TestGCDropsLoneTombstoneLater: a delete the horizon has not reached leaves
// [live, tombstone]; the sweep that reaches it must remove the key although
// nothing wrote it in between — it is still on the dirty list.
func TestGCDropsLoneTombstoneLater(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(1))
	e := s.BeginEpoch()
	s.Delete(e, k(1))
	s.GC(e - 1)
	if got, ok := s.Get(0, k(1)); !ok || vOf(got) != 1 {
		t.Fatal("the version before the delete must survive a sweep that keeps epoch 0")
	}
	s.BeginEpoch()
	s.GC(e)
	if chains := checkDirtyLists(t, s); chains != 0 {
		t.Fatalf("%d chains resident after the tombstone fell behind the horizon", chains)
	}
}

// TestGCVisitsOnlyWrittenChains: what a sweep costs is the number of keys
// written since the last one, not the size of the store.
func TestGCVisitsOnlyWrittenChains(t *testing.T) {
	const resident, written = 5000, 50
	s := New()
	for i := int64(0); i < resident; i++ {
		s.Put(0, k(i), rec(i))
	}
	toVisit := func() (n int) {
		for i := range s.shards {
			n += len(s.shards[i].dirty)
		}
		return n
	}
	if n := toVisit(); n != 0 {
		t.Fatalf("populating lists %d chains for a sweep, want 0", n)
	}
	e := s.BeginEpoch()
	for i := int64(0); i < written; i++ {
		s.Put(e, k(i*7), rec(-i))
		s.Put(e, k(i*7), rec(-i-1)) // a second write at the same epoch lists nothing new
	}
	if n := toVisit(); n != written {
		t.Fatalf("a sweep after %d single-key writes would visit %d of %d chains", written, n, resident)
	}
	s.GC(e)
	if n := toVisit(); n != 0 {
		t.Fatalf("%d chains still listed after the sweep", n)
	}
	if s.Len() != resident {
		t.Fatalf("Len = %d, want %d", s.Len(), resident)
	}
}

func TestStoreAllocs(t *testing.T) {
	s := New()
	s.Put(0, k(1), rec(1))
	e := s.BeginEpoch()
	v := rec(2)
	s.Put(e, k(1), v)
	key := k(1)
	if n := testing.AllocsPerRun(100, func() { s.Get(e, key) }); n > 1 {
		t.Errorf("Get: %v allocs, want <= 1 (the key encoding)", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Put(e, key, v) }); n > 1 {
		t.Errorf("Put on an existing key at its newest epoch: %v allocs, want <= 1 (the key encoding)", n)
	}
}
