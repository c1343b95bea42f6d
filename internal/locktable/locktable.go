// Package locktable implements the deterministic scheduling structure at
// the core of Prognosticator's concurrency control (§III-C, Fig. 2): one
// FIFO queue per key, a per-transaction outstanding-lock counter, and
// grant-on-queue-order semantics. Transactions are enqueued in the
// deterministically agreed order; a transaction may execute exactly when it
// has been granted all its locks, which guarantees that concurrently
// executing transactions are pairwise compatible.
//
// Locks are reader/writer: reads at the front of a queue are granted
// together, writes exclusively — the same FIFO read/write discipline as
// Calvin's lock manager. (The paper's Fig. 2 sketches plain queues; with
// purely exclusive queues, hot catalog reads — e.g. TPC-C's NURand-skewed
// ITEM lookups — would serialize the whole workload, which contradicts the
// paper's measured parallelism, so shared read grants are clearly intended.
// An exclusive-only mode is kept for the ablation benchmarks.) Grants never
// jump the queue, so the relative order of conflicting transactions is
// exactly their enqueue order and determinism is preserved: concurrently
// granted transactions are read-compatible and therefore commute.
//
// The engine calls the table from one goroutine, its Queuer, which enqueues
// in the agreed order and releases each transaction once a worker reports it
// finished; the grants of a round depend only on the order of those releases.
package locktable

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"prognosticator/internal/value"
)

// Record is one lock-table event in a grant/release trace. Grant records
// are the ground truth of the effective serial order: for each key, the
// sequence of write grants (and the read groups between them) IS the order
// in which conflicting transactions actually touched that key, independent
// of what their Seq numbers claim.
type Record struct {
	// Seq is the transaction's agreed-order position (Entry.Seq).
	Seq uint64
	// Key is the encoded key this event happened on (same encoding as
	// engine.Access.Key).
	Key string
	// Write reports the lock mode.
	Write bool
	// Grant distinguishes grants (true) from releases (false).
	Grant bool
	// Pos is the event's ordinal within its key queue: the per-key total
	// order of grants and releases.
	Pos int
	// Round is the engine execution round this trace belongs to (0 for the
	// optimistic round, 1.. for re-executions); stamped by CollectTrace.
	Round int
}

// LockKey is one lock request: a key plus its mode.
type LockKey struct {
	Key   value.Encoded
	Write bool
}

// Entry is one transaction's participation in the lock table.
type Entry struct {
	// Seq is the transaction's position in the agreed order; used for
	// deterministic tie-breaking and diagnostics (the queue insertion
	// order is what schedules).
	Seq uint64
	// Keys is the deduplicated set of lock requests.
	Keys []LockKey
	// Payload carries the engine's transaction object through the table.
	Payload any

	remaining int32 // guarded by the table's lock
}

// Remaining returns the number of locks not yet granted (the paper's total
// locks counter).
func (e *Entry) Remaining() int32 { return e.remaining }

// BuildKeys constructs a deduplicated lock-request list from read and write
// key sets; a key in both takes a write lock. First-occurrence order is
// preserved (reads first). The list is the only allocation for a key-set of
// ordinary size.
func BuildKeys(reads, writes []value.Key) []LockKey {
	out := make([]LockKey, 0, len(reads)+len(writes))
	var ix keyIndex
	ix.init(cap(out))
	for _, k := range reads {
		e := k.Encode()
		if slot, found := ix.find(e, out); !found {
			ix.slots[slot] = int32(len(out) + 1)
			out = append(out, LockKey{Key: e})
		}
	}
	for _, k := range writes {
		e := k.Encode()
		slot, found := ix.find(e, out)
		if found {
			out[ix.slots[slot]-1].Write = true
			continue
		}
		ix.slots[slot] = int32(len(out) + 1)
		out = append(out, LockKey{Key: e, Write: true})
	}
	return out
}

// keyIndex finds a key's position in one transaction's lock list: an
// open-addressing table at most half full, on the stack for up to
// len(stack)/2 keys — a Go map here was an allocation per transaction and
// one per few keys.
type keyIndex struct {
	slots []int32 // position in the list + 1; 0 marks an empty slot
	stack [128]int32
}

var keyIndexSeed = maphash.MakeSeed()

// init sizes the table for a list of up to n keys.
func (ix *keyIndex) init(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if size <= len(ix.stack) {
		ix.slots = ix.stack[:size]
	} else {
		ix.slots = make([]int32, size)
	}
}

// find returns the slot holding e's position in keys, or the empty slot
// where it belongs.
func (ix *keyIndex) find(e value.Encoded, keys []LockKey) (slot int, found bool) {
	mask := len(ix.slots) - 1
	for slot = int(maphash.String(keyIndexSeed, string(e))) & mask; ix.slots[slot] != 0; slot = (slot + 1) & mask {
		if keys[ix.slots[slot]-1].Key == e {
			return slot, true
		}
	}
	return slot, false
}

// Table is the lock table. One lock guards all of it: the engine and the
// baselines call it from their Queuer alone, so the lock is uncontended there,
// and it keeps Enqueue and Release safe for callers that release from several
// goroutines.
type Table struct {
	mu     sync.Mutex
	queues map[value.Encoded]*keyQueue
	// free holds the queues Reset emptied, with their entry arrays, for
	// queueFor to hand out again: a round needs about as many as the last.
	free []*keyQueue

	// traceOn enables grant/release record collection. Set it before a
	// batch starts executing (EnableTrace); it must not be toggled while
	// Enqueue/Release are running.
	traceOn bool
	// unsafeLIFO is a mutation hook only this package's tests can set
	// (SetUnsafeLIFOGrants in export_test.go): grant the NEWEST compatible
	// waiter instead of the FIFO prefix. Mutual exclusion is preserved —
	// only the conflict ORDER is corrupted — so the bug is invisible to
	// state-hash checks on commutative workloads and to the untraced
	// serializability checker, but a lock-grant-traced checker must catch
	// it.
	unsafeLIFO bool
}

// qent is one entry's position in one key queue.
type qent struct {
	e        *Entry
	write    bool
	granted  bool
	released bool
}

type keyQueue struct {
	key  value.Encoded
	ents []qent
	head int // first non-released position

	recs []Record // grant/release trace, when the table has tracing on
	pos  int      // next Record.Pos for this queue
}

// New returns an empty lock table.
func New() *Table {
	return &Table{queues: make(map[value.Encoded]*keyQueue)}
}

// Len returns the number of key queues currently materialized.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.queues)
}

// queueFor returns k's queue. Callers hold t.mu.
func (t *Table) queueFor(k value.Encoded) *keyQueue {
	q, ok := t.queues[k]
	if !ok {
		if n := len(t.free); n > 0 {
			q, t.free = t.free[n-1], t.free[:n-1]
		} else {
			q = &keyQueue{}
		}
		q.key = k
		t.queues[k] = q
	}
	return q
}

// record appends one trace event.
func (q *keyQueue) record(seq uint64, write, grant bool) {
	q.recs = append(q.recs, Record{Seq: seq, Key: string(q.key), Write: write, Grant: grant, Pos: q.pos})
	q.pos++
}

// grant marks en granted and reports whether that was its entry's last
// outstanding lock.
func (q *keyQueue) grant(t *Table, en *qent) bool {
	en.granted = true
	if t.traceOn {
		q.record(en.e.Seq, en.write, true)
	}
	en.e.remaining--
	return en.e.remaining == 0
}

// grantScan grants the longest compatible FIFO prefix and passes each entry
// whose LAST outstanding lock it granted (now ready to run) to onReady, if
// not nil. Callers hold t.mu.
func (q *keyQueue) grantScan(t *Table, onReady func(*Entry)) {
	if t.unsafeLIFO {
		q.grantScanLIFO(t, onReady)
		return
	}
	grantedWrites, grantedReads := 0, 0
	for i := q.head; i < len(q.ents); i++ {
		en := &q.ents[i]
		if en.released {
			continue
		}
		if !en.granted {
			// FIFO: grant only while compatible with everything granted ahead.
			if grantedWrites > 0 || (en.write && grantedReads > 0) {
				break
			}
			if q.grant(t, en) && onReady != nil {
				onReady(en.e)
			}
		}
		if en.write {
			grantedWrites++
		} else {
			grantedReads++
		}
	}
}

// grantScanLIFO is the planted-bug variant behind unsafeLIFO: it
// grants at most one waiter per scan, choosing the NEWEST compatible one.
// Grants remain mutually exclusive (a write is granted only when nothing is
// granted; a read only when no write is granted), so execution atomicity is
// intact — but conflicting transactions run in reverse arrival order, which
// silently breaks determinism's agreed serial order.
func (q *keyQueue) grantScanLIFO(t *Table, onReady func(*Entry)) {
	grantedWrites, grantedReads := 0, 0
	for i := q.head; i < len(q.ents); i++ {
		en := &q.ents[i]
		if en.released || !en.granted {
			continue
		}
		if en.write {
			grantedWrites++
		} else {
			grantedReads++
		}
	}
	for i := len(q.ents) - 1; i >= q.head; i-- {
		en := &q.ents[i]
		if en.released || en.granted {
			continue
		}
		if grantedWrites > 0 || (en.write && grantedReads > 0) {
			continue // incompatible; try an even older waiter
		}
		if q.grant(t, en) && onReady != nil {
			onReady(en.e)
		}
		return
	}
}

// Enqueue inserts e at the tail of every queue in e.Keys and initializes
// its outstanding-lock counter. It reports whether e is immediately ready
// (all locks granted). Entries with no keys are ready trivially.
func (t *Table) Enqueue(e *Entry) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.remaining = int32(len(e.Keys))
	for _, lk := range e.Keys {
		q := t.queueFor(lk.Key)
		q.ents = append(q.ents, qent{e: e, write: lk.Write})
		// Appending can only ever grant the appended entry: earlier
		// entries' grant states are unchanged by a new tail.
		q.grantScan(t, nil)
	}
	return e.remaining == 0
}

// Release returns e's locks on all its queues. For every queue where
// successors thereby acquire their last outstanding lock, they are passed
// to onReady, once the table is unlocked. Release panics if e does not hold a
// granted lock on one of its queues — that would be a scheduling bug, not a
// recoverable condition.
func (t *Table) Release(e *Entry, onReady func(*Entry)) {
	// What the release readies, kept for onReady until the lock is dropped;
	// on the stack unless it is more than eight entries.
	var buf [8]*Entry
	ready := buf[:0]
	t.mu.Lock()
	for _, lk := range e.Keys {
		q := t.queueFor(lk.Key)
		found := false
		for i := q.head; i < len(q.ents); i++ {
			en := &q.ents[i]
			if en.e == e && !en.released {
				if !en.granted {
					break // found but not granted: bug, reported below
				}
				en.released = true
				en.e = nil // release for GC
				if t.traceOn {
					q.record(e.Seq, en.write, false)
				}
				found = true
				break
			}
		}
		if !found {
			t.mu.Unlock()
			panic(fmt.Sprintf("locktable: release of tx %d without granted lock on %s", e.Seq, lk.Key))
		}
		for q.head < len(q.ents) && q.ents[q.head].released {
			q.head++
		}
		q.grantScan(t, func(g *Entry) { ready = append(ready, g) })
	}
	t.mu.Unlock()
	for _, g := range ready {
		onReady(g)
	}
}

// EnableTrace turns grant/release record collection on or off. It must be
// called while the table is quiescent (no Enqueue/Release in flight) —
// normally once, right after New.
func (t *Table) EnableTrace(on bool) { t.traceOn = on }

// CollectTrace returns every grant/release record accumulated since the
// last Reset, stamped with the given engine round and sorted by (Key, Pos)
// so the output is deterministic regardless of map iteration order.
// Returns nil when tracing is off.
func (t *Table) CollectTrace(round int) []Record {
	if !t.traceOn {
		return nil
	}
	t.mu.Lock()
	var out []Record
	for _, q := range t.queues {
		out = append(out, q.recs...)
	}
	t.mu.Unlock()
	for i := range out {
		out[i].Round = round
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

// Reset clears all queues (and any accumulated trace records — collect
// before resetting) and keeps the emptied queues for the next round. The
// engine calls it between rounds.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, q := range t.queues {
		// Drop what the entries and records point at; keep the arrays.
		clear(q.ents)
		clear(q.recs)
		q.key, q.ents, q.head, q.recs, q.pos = "", q.ents[:0], 0, q.recs[:0], 0
		t.free = append(t.free, q)
	}
	clear(t.queues)
}

// Clear empties the table and lets go of the queues Reset keeps: recycling
// is for the rounds of one batch, and a table between batches holds nothing.
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.queues)
	t.free = nil
}

// PendingKeys returns the number of queues that still hold unreleased
// entries; used by tests to assert full drainage.
func (t *Table) PendingKeys() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, q := range t.queues {
		if q.head < len(q.ents) {
			n++
		}
	}
	return n
}
