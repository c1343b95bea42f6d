// Package replica ties the pieces into a System Replica (paper Fig. 1): a
// Raft node delivering ordered batches, a deterministic executor applying
// them, and a state hash for divergence detection. Only the agreed order is
// durable: each node keeps one journal, its raft FileStorage, to which the
// replica adds an applied-index hint after every batch. A Cluster helper
// assembles a full in-process deployment (N replicas + dispatchers) for the
// examples, tests and cmd/replicad — including per-replica crash and
// rejoin: a crashed node's store is rebuilt from the journal's snapshot plus a
// replay of the journal above it (recovery.go), then caught up through Raft
// to the live commit index, while apply-time deduplication by client
// session makes resubmission after an ambiguous leader change idempotent.
// The dedup table is built from the committed batches alone, so every
// replica holds the same table at the same index. With snapshots enabled a
// replica periodically captures its store and that table (see snapshot.go)
// and hands it to raft, whose journal checkpoint is the snapshot's one
// durable copy and which compacts its log below the snapshot index, so
// recovery time and log size stay bounded in a long-lived deployment.
package replica

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/raft"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
	"prognosticator/internal/vclock"
)

// Replica applies committed batches to a deterministic executor.
type Replica struct {
	ID   string
	exec engine.Executor
	st   *store.Store
	clk  vclock.Clock // the wall clock unless set before Start
	// journal takes an applied-index hint after every batch; nil without
	// persistence. Set before Start.
	journal *raft.FileStorage

	// onApply, when non-nil, observes every non-duplicate batch application
	// (index, batch name, requests, outcomes) from the apply loop, in apply
	// order — the history recorder's tap. Duplicate and re-delivered batches
	// are not reported: it sees exactly the executed history. Set before
	// Start.
	onApply func(index uint64, id string, reqs []engine.Request, res *engine.BatchResult)

	// applied is notified after every committed record the apply loop has
	// dealt with (executed, deduplicated, re-delivered or installed). It is
	// the Cluster's, which outlives a Replica that Crash/Restart replaces;
	// nil on a replica run without one. Set before Start.
	applied *vclock.Signal

	mu          sync.Mutex
	lastApplied uint64 // raft index of last applied batch
	batches     int
	// sessions is the dedup table, a function of the committed batches
	// alone: snapshots carry it and recovery replays the journal through
	// applyOne, so every replica, crashed or not, skips the same duplicates.
	sessions    Sessions
	deduped     int // duplicate batches skipped (idempotent resubmission)
	redelivered int // already-applied entries re-delivered by raft after restart

	// snapEvery, when positive, takes a snapshot each time that many raft
	// entries have been applied since the last one, and compact is handed
	// each new snapshot (asynchronously): raft journals it, the one durable
	// copy recovery restores, and truncates its log below it. Set before
	// Start.
	snapEvery uint64
	compact   func(index uint64, data []byte) error
	lastSnap  uint64 // raft index of the newest taken or installed snapshot
	snapTaken int
	installed int // snapshots installed from a leader's InstallSnapshotChunk transfer

	// applyDelay throttles the apply loop (nanoseconds per batch) — the
	// chaos slow-apply fault: a replica that falls behind without crashing.
	applyDelay atomic.Int64

	stopCh   chan struct{}
	stopOnce sync.Once
	join     func() // waits for the apply loop to return; nil before Start
}

// Session is one client session's part of the dedup table.
type Session struct {
	// Low is the highest Low of the session's executed batches: every Seq
	// below it has finished, and a batch carrying one is skipped.
	Low uint64
	// Applied maps each executed Seq at or above Low to its raft index.
	Applied map[uint64]uint64
}

// Sessions is the dedup table: client sessions by ID.
type Sessions map[string]Session

// done reports whether b is a duplicate: its session has executed b's Seq,
// or b's Seq is below the session's Low. A batch without a session never is.
func (s Sessions) done(b sequencer.Batch) bool {
	ss := s[b.ID]
	_, ok := ss.Applied[b.Seq]
	return b.ID != "" && (ok || b.Seq < ss.Low)
}

// record notes that b executed at index, then drops the Seqs below b's Low.
func (s Sessions) record(b sequencer.Batch, index uint64) {
	if b.ID == "" {
		return
	}
	ss := s[b.ID]
	if ss.Applied == nil {
		ss.Applied = map[uint64]uint64{}
	}
	ss.Applied[b.Seq] = index
	if b.Low > ss.Low {
		ss.Low = b.Low
		for seq := range ss.Applied {
			if seq < ss.Low {
				delete(ss.Applied, seq)
			}
		}
	}
	s[b.ID] = ss
}

// New returns a replica applying batches through exec to st.
func New(id string, exec engine.Executor, st *store.Store) *Replica {
	return &Replica{
		ID: id, exec: exec, st: st, clk: vclock.Wall,
		sessions: Sessions{},
		stopCh:   make(chan struct{}),
	}
}

// Start launches the apply loop consuming committed entries.
func (r *Replica) Start(applyCh <-chan raft.Committed, onError func(error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.join = vclock.Go(r.clk, "apply:"+r.ID, func() { r.run(applyCh, onError) })
}

// run is the apply loop: one committed record per iteration, stop polled
// first so crash-stop needs no pending records to make progress, and a
// Yield after each apply so on a simulated clock the picker controls the
// interleaving (raft publishes every record it enqueues).
func (r *Replica) run(applyCh <-chan raft.Committed, onError func(error)) {
	for {
		which, c, _ := vclock.Recv[raft.Committed, struct{}](r.clk, r.stopCh, applyCh, nil)
		if which == 0 {
			return
		}
		if err := r.applyOne(c); err != nil {
			if onError != nil {
				onError(err)
			}
			return
		}
		r.applied.Notify()
		vclock.Yield(r.clk)
	}
}

// Stop terminates the apply loop; before Start it returns at once.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.mu.Lock()
	join := r.join
	r.mu.Unlock()
	if join != nil {
		join()
	}
}

// SetApplyDelay throttles the apply loop: every batch apply sleeps d first
// (0 restores full speed). Safe to call while the loop runs.
func (r *Replica) SetApplyDelay(d time.Duration) {
	r.applyDelay.Store(int64(d))
}

func (r *Replica) applyOne(c raft.Committed) error {
	if d := time.Duration(r.applyDelay.Load()); d > 0 {
		r.clk.Sleep(d)
	}
	if c.Snapshot != nil {
		return r.installSnapshot(c)
	}
	b, err := sequencer.DecodeBatch(c)
	if err != nil {
		return fmt.Errorf("replica %s: %w", r.ID, err)
	}
	r.mu.Lock()
	if c.Index <= r.lastApplied {
		// Raft re-delivers the uncompacted suffix after a restart; the
		// recovered prefix is already in the store.
		r.redelivered++
		r.mu.Unlock()
		return nil
	}
	if r.sessions.done(b) {
		// A resubmitted batch committed twice (ambiguous leader change
		// mid-submit), or one its session had given up on: execute the first
		// occurrence only. Recovery replays the journal through here and
		// skips it again.
		r.deduped++
		r.lastApplied = c.Index
		r.mu.Unlock()
		return r.hint(c.Index)
	}
	r.mu.Unlock()
	res, err := r.exec.ExecuteBatch(b.Requests)
	if err != nil {
		return fmt.Errorf("replica %s: apply batch %d: %w", r.ID, c.Index, err)
	}
	if r.onApply != nil {
		name := ""
		if b.ID != "" {
			name = b.ID + "-" + strconv.FormatUint(b.Seq, 10)
		}
		r.onApply(c.Index, name, b.Requests, res)
	}
	r.mu.Lock()
	r.lastApplied = c.Index
	r.batches++
	r.sessions.record(b, c.Index)
	if r.snapEvery > 0 && r.lastApplied >= r.lastSnap+r.snapEvery {
		err = r.snapshotLocked()
	}
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("replica %s: snapshot at %d: %w", r.ID, c.Index, err)
	}
	return r.hint(c.Index)
}

// hint records in the journal that every entry through index is applied,
// so that a recovery replays the journal that far.
func (r *Replica) hint(index uint64) error {
	if r.journal == nil {
		return nil
	}
	if err := r.journal.SaveApplied(index); err != nil {
		return fmt.Errorf("replica %s: journal: %w", r.ID, err)
	}
	return nil
}

// snapshotLocked captures the store at the current apply position and hands
// the encoded snapshot to the consensus layer, whose journal checkpoint is
// its durable copy. Called from the apply loop, so the store is quiescent.
// The raft Compact call runs on its own goroutine: raft delivers committed
// entries while holding its lock, so calling back into it synchronously
// from the apply loop could deadlock on a full apply channel. Until the
// checkpoint lands the journal still holds every entry the snapshot
// covers, so a crash before then recovers by replaying them.
func (r *Replica) snapshotLocked() error {
	encoded, err := r.encodeLocked()
	if err != nil {
		return err
	}
	idx := r.lastApplied
	r.lastSnap = idx
	r.snapTaken++
	if compact := r.compact; compact != nil {
		// On a simulated clock this spawns a (short-lived) actor, so
		// compaction timing — which decides whether a lagging follower is
		// caught up by entry replay or a snapshot install — replays from the
		// seed instead of racing the apply loop.
		vclock.Go(r.clk, "compact:"+r.ID, func() { _ = compact(idx, encoded) })
	}
	return nil
}

// encodeLocked encodes the replica's snapshot at its apply position.
func (r *Replica) encodeLocked() ([]byte, error) {
	return EncodeSnapshot(&StoreSnapshot{Index: r.lastApplied, Batches: r.batches, Sessions: r.sessions, Pairs: CaptureStore(r.st)})
}

// installSnapshot restores the store from a leader-shipped snapshot — the
// catch-up path for a replica so far behind that the entries it needs were
// compacted away. Raft journaled the snapshot before delivering it, so a
// crash from here on recovers from it.
func (r *Replica) installSnapshot(c raft.Committed) error {
	r.mu.Lock()
	if c.Index <= r.lastApplied {
		r.redelivered++
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	snap, err := DecodeSnapshot(c.Snapshot)
	if err != nil {
		return fmt.Errorf("replica %s: install snapshot at %d: %w", r.ID, c.Index, err)
	}
	r.restore(snap)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.installed++
	return nil
}

// restore replaces the store and the apply position with snap's.
func (r *Replica) restore(snap *StoreSnapshot) {
	RestoreStore(r.st, snap)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastApplied = snap.Index
	r.lastSnap = snap.Index
	r.batches = snap.Batches
	r.sessions = snap.Sessions
}

// appliedSeq reports whether this replica has executed batch seq of session
// id. An entry is dropped only once a later batch's Low passes seq, which
// cannot happen while seq's submit is still running.
func (r *Replica) appliedSeq(id string, seq uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sessions[id].Applied[seq]
	return ok
}

// LastApplied returns the Raft index of the last applied batch.
func (r *Replica) LastApplied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastApplied
}

// Batches returns the number of batches this replica's store state
// reflects: batches executed live plus batches replayed from the journal at
// recovery. Duplicates and re-deliveries are never counted, so under an
// exactly-once workload this equals the number of distinct submitted
// batches.
func (r *Replica) Batches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.batches
}

// Deduped returns how many duplicate batch resubmissions were skipped.
func (r *Replica) Deduped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deduped
}

// Redelivered returns how many already-applied entries Raft re-delivered
// (the catch-up prefix after a restart).
func (r *Replica) Redelivered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.redelivered
}

// DedupSize returns the number of executed batches the dedup table still
// remembers: per session, those at or above its Low, which is bounded by the
// session's concurrent submits, not by deployment lifetime.
func (r *Replica) DedupSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.sessions {
		n += len(s.Applied)
	}
	return n
}

// DedupTable returns the dedup table as a snapshot encodes it: replicas
// that have applied the same prefix of the log return the same bytes.
func (r *Replica) DedupTable() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions.append(nil)
}

// Snapshots returns how many snapshots this replica captured itself.
func (r *Replica) Snapshots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapTaken
}

// SnapshotsInstalled returns how many leader-shipped snapshots were
// installed (far-behind catch-up).
func (r *Replica) SnapshotsInstalled() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.installed
}

// StateHash returns the order-independent hash of the replica's current
// store state.
func (r *Replica) StateHash() uint64 { return r.st.StateHash(r.st.Epoch()) }
