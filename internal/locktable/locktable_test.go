package locktable

import (
	"math/rand"
	"sync"
	"testing"

	"prognosticator/internal/value"
)

func ek(s string) value.Encoded { return value.NewKey(s).Encode() }

// entry builds an all-write (exclusive) entry, the mode the original tests
// exercise; RW-specific tests build LockKeys directly.
func entry(seq uint64, keys ...string) *Entry {
	ks := make([]value.Encoded, len(keys))
	for i, k := range keys {
		ks[i] = ek(k)
	}
	return &Entry{Seq: seq, Keys: ExclusiveKeys(ks)}
}

func rentry(seq uint64, reads, writes []string) *Entry {
	var lks []LockKey
	for _, k := range reads {
		lks = append(lks, LockKey{Key: ek(k)})
	}
	for _, k := range writes {
		lks = append(lks, LockKey{Key: ek(k), Write: true})
	}
	return &Entry{Seq: seq, Keys: lks}
}

func TestDisjointTransactionsReadyImmediately(t *testing.T) {
	lt := New()
	a := entry(1, "x", "y")
	b := entry(2, "z")
	if !lt.Enqueue(a) {
		t.Fatal("a should be ready (empty table)")
	}
	if !lt.Enqueue(b) {
		t.Fatal("b should be ready (disjoint keys)")
	}
}

func TestConflictingTransactionsSerialize(t *testing.T) {
	lt := New()
	a := entry(1, "x", "y")
	b := entry(2, "y", "z")
	c := entry(3, "z")
	if !lt.Enqueue(a) {
		t.Fatal("a ready")
	}
	if lt.Enqueue(b) {
		t.Fatal("b must wait for a (shares y)")
	}
	if lt.Enqueue(c) {
		t.Fatal("c must wait for b (shares z)")
	}
	if b.Remaining() != 1 || c.Remaining() != 1 {
		t.Fatalf("remaining: b=%d c=%d", b.Remaining(), c.Remaining())
	}
	var ready []*Entry
	lt.Release(a, func(e *Entry) { ready = append(ready, e) })
	if len(ready) != 1 || ready[0] != b {
		t.Fatalf("after releasing a, ready = %v", ready)
	}
	ready = nil
	lt.Release(b, func(e *Entry) { ready = append(ready, e) })
	if len(ready) != 1 || ready[0] != c {
		t.Fatalf("after releasing b, ready = %v", ready)
	}
	lt.Release(c, func(*Entry) { t.Fatal("nothing should follow c") })
	if lt.PendingKeys() != 0 {
		t.Fatalf("pending keys = %d", lt.PendingKeys())
	}
}

func TestFigure2Scenario(t *testing.T) {
	// Tx1 and Tx2 are at the heads of disjoint queues; Tx3 waits on both.
	lt := New()
	tx1 := entry(1, "a", "b")
	tx2 := entry(2, "c")
	tx3 := entry(3, "b", "c")
	if !lt.Enqueue(tx1) || !lt.Enqueue(tx2) {
		t.Fatal("tx1 and tx2 must be concurrently ready")
	}
	if lt.Enqueue(tx3) {
		t.Fatal("tx3 conflicts with both")
	}
	if tx3.Remaining() != 2 {
		t.Fatalf("tx3 remaining = %d, want 2", tx3.Remaining())
	}
	var ready []*Entry
	lt.Release(tx1, func(e *Entry) { ready = append(ready, e) })
	if len(ready) != 0 {
		t.Fatal("tx3 still waits for tx2")
	}
	lt.Release(tx2, func(e *Entry) { ready = append(ready, e) })
	if len(ready) != 1 || ready[0] != tx3 {
		t.Fatal("tx3 must become ready after both predecessors")
	}
}

func TestEmptyKeysReadyTrivially(t *testing.T) {
	lt := New()
	e := entry(1)
	if !lt.Enqueue(e) {
		t.Fatal("keyless entry must be ready")
	}
	lt.Release(e, func(*Entry) { t.Fatal("no successors") })
}

func TestBuildKeysWriteWins(t *testing.T) {
	r := []value.Key{value.NewKey("T", value.Int(1)), value.NewKey("T", value.Int(2))}
	w := []value.Key{value.NewKey("T", value.Int(2)), value.NewKey("T", value.Int(3))}
	lks := BuildKeys(r, w)
	if len(lks) != 3 {
		t.Fatalf("BuildKeys = %v", lks)
	}
	want := map[string]bool{"T/i1": false, "T/i2": true, "T/i3": true}
	for _, lk := range lks {
		if want[string(lk.Key)] != lk.Write {
			t.Fatalf("lock %s write=%v", lk.Key, lk.Write)
		}
	}
}

func TestSharedReadsGrantTogether(t *testing.T) {
	lt := New()
	r1 := rentry(1, []string{"item"}, []string{"a"})
	r2 := rentry(2, []string{"item"}, []string{"b"})
	r3 := rentry(3, []string{"item"}, []string{"c"})
	if !lt.Enqueue(r1) || !lt.Enqueue(r2) || !lt.Enqueue(r3) {
		t.Fatal("read-sharing entries must all be ready immediately")
	}
}

func TestWriteBlocksReaders(t *testing.T) {
	lt := New()
	w := rentry(1, nil, []string{"item"})
	r := rentry(2, []string{"item"}, nil)
	if !lt.Enqueue(w) {
		t.Fatal("writer first must be ready")
	}
	if lt.Enqueue(r) {
		t.Fatal("reader behind writer must wait")
	}
	var ready []*Entry
	lt.Release(w, func(e *Entry) { ready = append(ready, e) })
	if len(ready) != 1 || ready[0] != r {
		t.Fatalf("reader not granted after writer release: %v", ready)
	}
	lt.Release(r, func(*Entry) { t.Fatal("no successors") })
}

func TestReadersBlockWriterUntilAllRelease(t *testing.T) {
	lt := New()
	r1 := rentry(1, []string{"item"}, nil)
	r2 := rentry(2, []string{"item"}, nil)
	w := rentry(3, nil, []string{"item"})
	if !lt.Enqueue(r1) || !lt.Enqueue(r2) {
		t.Fatal("readers must share")
	}
	if lt.Enqueue(w) {
		t.Fatal("writer behind readers must wait")
	}
	var ready []*Entry
	// Release out of order: r2 first, then r1.
	lt.Release(r2, func(e *Entry) { ready = append(ready, e) })
	if len(ready) != 0 {
		t.Fatal("writer granted while a reader still holds")
	}
	lt.Release(r1, func(e *Entry) { ready = append(ready, e) })
	if len(ready) != 1 || ready[0] != w {
		t.Fatalf("writer not granted after all readers released: %v", ready)
	}
}

func TestNoJumpingFIFO(t *testing.T) {
	// reader, writer, reader: the trailing reader must NOT share with the
	// leading one across the waiting writer (FIFO fairness keeps
	// determinism).
	lt := New()
	r1 := rentry(1, []string{"k"}, nil)
	w := rentry(2, nil, []string{"k"})
	r2 := rentry(3, []string{"k"}, nil)
	if !lt.Enqueue(r1) {
		t.Fatal("first reader ready")
	}
	if lt.Enqueue(w) {
		t.Fatal("writer must wait")
	}
	if lt.Enqueue(r2) {
		t.Fatal("trailing reader must not jump the writer")
	}
	var ready []*Entry
	lt.Release(r1, func(e *Entry) { ready = append(ready, e) })
	if len(ready) != 1 || ready[0] != w {
		t.Fatalf("after r1: ready=%v", ready)
	}
	ready = nil
	lt.Release(w, func(e *Entry) { ready = append(ready, e) })
	if len(ready) != 1 || ready[0] != r2 {
		t.Fatalf("after w: ready=%v", ready)
	}
	lt.Release(r2, func(*Entry) {})
	if lt.PendingKeys() != 0 {
		t.Fatal("not drained")
	}
}

func TestReleaseNotAtHeadPanics(t *testing.T) {
	lt := New()
	a := entry(1, "x")
	b := entry(2, "x")
	lt.Enqueue(a)
	lt.Enqueue(b)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a non-head entry must panic")
		}
	}()
	lt.Release(b, func(*Entry) {})
}

func TestReset(t *testing.T) {
	lt := New()
	lt.Enqueue(entry(1, "x"))
	lt.Enqueue(entry(2, "x"))
	lt.Reset()
	if lt.Len() != 0 {
		t.Fatalf("Len after reset = %d", lt.Len())
	}
	// Fresh entries start clean after reset.
	if !lt.Enqueue(entry(3, "x")) {
		t.Fatal("first entry after reset must be ready")
	}
}

// TestPropSchedulingMatchesQueueOrder drives random workloads through the
// table and asserts the fundamental invariants: (1) every transaction is
// eventually ready exactly once, (2) at no time are two transactions with a
// common key simultaneously "executing", and (3) conflicting transactions
// become ready in enqueue order.
func TestPropSchedulingMatchesQueueOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		lt := New()
		n := 2 + r.Intn(60)
		entries := make([]*Entry, n)
		ready := make(chan *Entry, n)
		for i := range entries {
			nk := 1 + r.Intn(4)
			keys := map[string]bool{}
			for len(keys) < nk {
				keys[string(rune('a'+r.Intn(8)))] = true
			}
			var ks []string
			for k := range keys {
				ks = append(ks, k)
			}
			entries[i] = entry(uint64(i), ks...)
		}
		for _, e := range entries {
			if lt.Enqueue(e) {
				ready <- e
			}
		}
		// Simulate execution: repeatedly pick a ready entry (randomly,
		// like racing workers would), check invariants, release.
		holding := map[value.Encoded]*Entry{}
		completedOrder := map[value.Encoded][]uint64{}
		done := 0
		var pool []*Entry
		for done < n {
			for {
				select {
				case e := <-ready:
					pool = append(pool, e)
					continue
				default:
				}
				break
			}
			if len(pool) == 0 {
				t.Fatalf("trial %d: deadlock with %d/%d done", trial, done, n)
			}
			idx := r.Intn(len(pool))
			e := pool[idx]
			pool = append(pool[:idx], pool[idx+1:]...)
			for _, lk := range e.Keys {
				if other, busy := holding[lk.Key]; busy {
					t.Fatalf("trial %d: txs %d and %d concurrently hold %s", trial, e.Seq, other.Seq, lk.Key)
				}
				holding[lk.Key] = e
			}
			// "execute"
			for _, lk := range e.Keys {
				completedOrder[lk.Key] = append(completedOrder[lk.Key], e.Seq)
				delete(holding, lk.Key)
			}
			lt.Release(e, func(nx *Entry) { ready <- nx })
			done++
		}
		// Per-key completion order must equal enqueue (Seq) order.
		for k, seqs := range completedOrder {
			for i := 1; i < len(seqs); i++ {
				if seqs[i] < seqs[i-1] {
					t.Fatalf("trial %d: key %s executed out of order: %v", trial, k, seqs)
				}
			}
		}
		if lt.PendingKeys() != 0 {
			t.Fatalf("trial %d: table not drained", trial)
		}
	}
}

// TestConcurrentWorkersDrainTable exercises Release from many goroutines.
func TestConcurrentWorkersDrainTable(t *testing.T) {
	lt := New()
	const n = 500
	ready := make(chan *Entry, n)
	for i := 0; i < n; i++ {
		e := entry(uint64(i),
			string(rune('a'+i%7)), string(rune('h'+i%5)))
		if lt.Enqueue(e) {
			ready <- e
		}
	}
	var done sync.WaitGroup
	var count atomic64
	workers := 8
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer done.Done()
			for e := range ready {
				lt.Release(e, func(nx *Entry) { ready <- nx })
				if count.inc() == n {
					close(ready)
				}
			}
		}()
	}
	done.Wait()
	if count.get() != n {
		t.Fatalf("completed %d, want %d", count.get(), n)
	}
	if lt.PendingKeys() != 0 {
		t.Fatal("table not drained")
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int
}

func (a *atomic64) inc() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.v++
	return a.v
}

func (a *atomic64) get() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// TestBuildKeysMatchesMapModel holds the map-free dedup to the obvious model
// on random key-sets, small enough for the on-stack index and too large for
// it, with heavy duplication.
func TestBuildKeysMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		domain := 1 + r.Intn(400)
		draw := func(n int) []value.Key {
			keys := make([]value.Key, n)
			for i := range keys {
				keys[i] = value.NewKey("T", value.Int(int64(r.Intn(domain))), value.Str(string(rune('a'+r.Intn(2)))))
			}
			return keys
		}
		reads, writes := draw(r.Intn(200)), draw(r.Intn(200))
		var want []LockKey
		at := map[value.Encoded]int{}
		for _, k := range reads {
			if _, ok := at[k.Encode()]; !ok {
				at[k.Encode()] = len(want)
				want = append(want, LockKey{Key: k.Encode()})
			}
		}
		for _, k := range writes {
			if i, ok := at[k.Encode()]; ok {
				want[i].Write = true
				continue
			}
			at[k.Encode()] = len(want)
			want = append(want, LockKey{Key: k.Encode(), Write: true})
		}
		got := BuildKeys(reads, writes)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d lock keys, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: lock key %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestResetRecyclesQueues: a round after Reset runs on the queues the last
// round left — nothing of that round shows in them, and nothing is allocated
// for them — and Clear lets them go.
func TestResetRecyclesQueues(t *testing.T) {
	lt := New()
	lt.EnableTrace(true)
	round := func(keys ...string) []Record {
		a, b := rentry(1, keys, nil), entry(2, keys...)
		if !lt.Enqueue(a) || lt.Enqueue(b) {
			t.Fatalf("round on %v: reader must be ready and writer wait", keys)
		}
		woken := 0
		lt.Release(a, func(e *Entry) {
			if e != b {
				t.Fatalf("release woke %d, want the writer", e.Seq)
			}
			woken++
		})
		if woken != 1 {
			t.Fatalf("round on %v: writer woken %d times", keys, woken)
		}
		lt.Release(b, func(*Entry) { t.Fatal("no successors") })
		if lt.PendingKeys() != 0 {
			t.Fatalf("round on %v left pending keys", keys)
		}
		return lt.CollectTrace(0)
	}
	first := round("x", "y", "z")
	lt.Reset()
	if lt.Len() != 0 {
		t.Fatalf("%d queues after Reset", lt.Len())
	}
	second := round("p", "q")
	if len(first) != 12 || len(second) != 8 {
		t.Fatalf("trace lengths %d and %d, want 12 and 8: a recycled queue kept records", len(first), len(second))
	}
	for _, rec := range second {
		if rec.Key != "p" && rec.Key != "q" || rec.Pos > 3 {
			t.Fatalf("record %+v in the second round's trace", rec)
		}
	}

	// Same keys round after round: every queue comes from the free list.
	lt.EnableTrace(false)
	es := []*Entry{entry(1, "a", "b", "c"), entry(2, "c", "d"), rentry(3, []string{"a", "d", "e"}, nil)}
	cycle := func() {
		lt.Reset()
		for _, e := range es {
			lt.Enqueue(e)
		}
		for _, e := range es {
			lt.Release(e, func(*Entry) {})
		}
	}
	cycle()
	// Seven queues and their entry arrays would be allocated without the
	// free list.
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("a round on recycled queues allocates %v times", n)
	}

	lt.Clear()
	if lt.Len() != 0 {
		t.Fatalf("%d queues after Clear", lt.Len())
	}
	if len(lt.free) != 0 {
		t.Fatalf("%d queues kept after Clear", len(lt.free))
	}
	round("x")
}
