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
package locktable

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"

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

	remaining atomic.Int32
}

// Remaining returns the number of locks not yet granted (the paper's total
// locks counter).
func (e *Entry) Remaining() int32 { return e.remaining.Load() }

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

// ExclusiveKeys builds an all-write lock list (the ablation mode and the
// table-granularity baselines).
func ExclusiveKeys(keys []value.Encoded) []LockKey {
	out := make([]LockKey, len(keys))
	for i, k := range keys {
		out[i] = LockKey{Key: k, Write: true}
	}
	return out
}

// tableShards is the number of queue-map shards.
const tableShards = 64

// Table is the lock table. Enqueue is intended to be called by the single
// Queuer; Release may be called concurrently by workers. The two may
// overlap: per-queue locking keeps grant hand-offs atomic.
type Table struct {
	shards [tableShards]tableShard

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

type tableShard struct {
	mu     sync.Mutex
	queues map[value.Encoded]*keyQueue
	// free holds the queues Reset emptied, with their entry arrays, for
	// queueFor to hand out again: a round needs about as many as the last.
	free []*keyQueue
}

// qent is one entry's position in one key queue.
type qent struct {
	e        *Entry
	write    bool
	granted  bool
	released bool
}

type keyQueue struct {
	mu   sync.Mutex
	key  value.Encoded
	ents []qent
	head int // first non-released position

	recs []Record // grant/release trace, when the table has tracing on
	pos  int      // next Record.Pos for this queue
}

// New returns an empty lock table.
func New() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].queues = make(map[value.Encoded]*keyQueue)
	}
	return t
}

// Len returns the number of key queues currently materialized.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.queues)
		sh.mu.Unlock()
	}
	return n
}

func shardOf(k value.Encoded) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return h & (tableShards - 1)
}

func (t *Table) queueFor(k value.Encoded) *keyQueue {
	sh := &t.shards[shardOf(k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q, ok := sh.queues[k]
	if !ok {
		if n := len(sh.free); n > 0 {
			q, sh.free = sh.free[n-1], sh.free[:n-1]
		} else {
			q = &keyQueue{}
		}
		q.key = k
		sh.queues[k] = q
	}
	return q
}

// record appends one trace event. Must be called with q.mu held.
func (q *keyQueue) record(seq uint64, write, grant bool) {
	q.recs = append(q.recs, Record{Seq: seq, Key: string(q.key), Write: write, Grant: grant, Pos: q.pos})
	q.pos++
}

// grantScan grants the longest compatible FIFO prefix. It must be called
// with q.mu held; it returns the entries whose LAST outstanding lock was
// granted by this scan (now ready to run). The table is passed for the
// trace flag and the test-only LIFO mutation.
func (q *keyQueue) grantScan(t *Table) []*Entry {
	if t.unsafeLIFO {
		return q.grantScanLIFO(t)
	}
	var ready []*Entry
	grantedWrites, grantedReads := 0, 0
	for i := q.head; i < len(q.ents); i++ {
		en := &q.ents[i]
		if en.released {
			continue
		}
		if en.granted {
			if en.write {
				grantedWrites++
			} else {
				grantedReads++
			}
			continue
		}
		// FIFO: grant only while compatible with everything granted ahead.
		if grantedWrites > 0 || (en.write && grantedReads > 0) {
			break
		}
		en.granted = true
		if t.traceOn {
			q.record(en.e.Seq, en.write, true)
		}
		if en.write {
			grantedWrites++
		} else {
			grantedReads++
		}
		if en.e.remaining.Add(-1) == 0 {
			ready = append(ready, en.e)
		}
		if en.write {
			break // a granted write blocks everything behind it
		}
	}
	return ready
}

// grantScanLIFO is the planted-bug variant behind unsafeLIFO: it
// grants at most one waiter per scan, choosing the NEWEST compatible one.
// Grants remain mutually exclusive (a write is granted only when nothing is
// granted; a read only when no write is granted), so execution atomicity is
// intact — but conflicting transactions run in reverse arrival order, which
// silently breaks determinism's agreed serial order.
func (q *keyQueue) grantScanLIFO(t *Table) []*Entry {
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
		en.granted = true
		if t.traceOn {
			q.record(en.e.Seq, en.write, true)
		}
		if en.e.remaining.Add(-1) == 0 {
			return []*Entry{en.e}
		}
		return nil
	}
	return nil
}

// Enqueue inserts e at the tail of every queue in e.Keys and initializes
// its outstanding-lock counter. It reports whether e is immediately ready
// (all locks granted). Entries with no keys are ready trivially.
func (t *Table) Enqueue(e *Entry) bool {
	e.remaining.Store(int32(len(e.Keys)))
	if len(e.Keys) == 0 {
		return true
	}
	ready := false
	for _, lk := range e.Keys {
		q := t.queueFor(lk.Key)
		q.mu.Lock()
		q.ents = append(q.ents, qent{e: e, write: lk.Write})
		granted := q.grantScan(t)
		q.mu.Unlock()
		for _, g := range granted {
			if g == e {
				ready = true
			}
			// Appending can only ever grant the appended entry: earlier
			// entries' grant states are unchanged by a new tail.
		}
	}
	return ready
}

// Release returns e's locks on all its queues. For every queue where
// successors thereby acquire their last outstanding lock, they are passed
// to onReady. Release panics if e does not hold a granted lock on one of
// its queues — that would be a scheduling bug, not a recoverable condition.
func (t *Table) Release(e *Entry, onReady func(*Entry)) {
	for _, lk := range e.Keys {
		q := t.queueFor(lk.Key)
		q.mu.Lock()
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
			q.mu.Unlock()
			panic(fmt.Sprintf("locktable: release of tx %d without granted lock on %s", e.Seq, lk.Key))
		}
		for q.head < len(q.ents) && q.ents[q.head].released {
			q.head++
		}
		granted := q.grantScan(t)
		q.mu.Unlock()
		for _, g := range granted {
			onReady(g)
		}
	}
}

// EnableTrace turns grant/release record collection on or off. It must be
// called while the table is quiescent (no Enqueue/Release in flight) —
// normally once, right after New.
func (t *Table) EnableTrace(on bool) { t.traceOn = on }

// CollectTrace returns every grant/release record accumulated since the
// last Reset, stamped with the given engine round and sorted by (Key, Pos)
// so the output is deterministic regardless of shard-map iteration order.
// Returns nil when tracing is off.
func (t *Table) CollectTrace(round int) []Record {
	if !t.traceOn {
		return nil
	}
	var out []Record
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			q.mu.Lock()
			out = append(out, q.recs...)
			q.mu.Unlock()
		}
		sh.mu.Unlock()
	}
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
// engine calls it between rounds; it must not race with Enqueue/Release.
func (t *Table) Reset() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			// Drop what the entries and records point at; keep the arrays.
			clear(q.ents)
			clear(q.recs)
			q.key, q.ents, q.head, q.recs, q.pos = "", q.ents[:0], 0, q.recs[:0], 0
			sh.free = append(sh.free, q)
		}
		clear(sh.queues)
		sh.mu.Unlock()
	}
}

// Clear empties the table and lets go of the queues Reset keeps: recycling
// is for the rounds of one batch, and a table between batches holds nothing.
// Like Reset, it must not race with Enqueue/Release.
func (t *Table) Clear() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		clear(sh.queues)
		sh.free = nil
		sh.mu.Unlock()
	}
}

// PendingKeys returns the number of queues that still hold unreleased
// entries; used by tests to assert full drainage.
func (t *Table) PendingKeys() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			q.mu.Lock()
			if q.head < len(q.ents) {
				n++
			}
			q.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	return n
}

// DedupKeys builds an encoded-key list from raw keys, removing duplicates
// while preserving first-occurrence order.
func DedupKeys(keys []value.Key) []value.Encoded {
	seen := make(map[value.Encoded]bool, len(keys))
	out := make([]value.Encoded, 0, len(keys))
	for _, k := range keys {
		e := k.Encode()
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}
