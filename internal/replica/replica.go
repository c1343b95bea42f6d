// Package replica ties the pieces into a System Replica (paper Fig. 1): a
// Raft node delivering ordered batches, a deterministic executor applying
// them, an optional write-ahead log for durability, and a state hash for
// divergence detection. A Cluster helper assembles a full in-process
// deployment (N replicas + dispatchers) for the examples, tests and
// cmd/replicad — including per-replica crash and rejoin: a crashed node's
// store is rebuilt from its newest snapshot plus the WAL suffix above it,
// then caught up through Raft to the live commit index, while apply-time
// batch-ID deduplication makes client resubmission after an ambiguous leader
// change idempotent. With snapshots enabled a replica periodically captures
// its store (see snapshot.go), compacts its raft log below the snapshot
// index, and prunes acknowledged entries from the dedup table, so recovery
// time, log size and dedup memory all stay bounded in a long-lived
// deployment.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/flowctl"
	"prognosticator/internal/memnet"
	"prognosticator/internal/raft"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
	"prognosticator/internal/tcpnet"
	"prognosticator/internal/value"
	"prognosticator/internal/vclock"
	"prognosticator/internal/wal"
)

// Replica applies committed batches to a deterministic executor.
type Replica struct {
	ID   string
	exec engine.Executor
	st   *store.Store
	log  *wal.Log // nil disables durability
	clk  vclock.Clock

	// onApply, when non-nil, observes every non-duplicate batch application
	// (index, batch ID, requests, outcomes) from the apply loop — the history
	// recorder's tap. Set before Start.
	onApply func(index uint64, id string, reqs []engine.Request, res *engine.BatchResult)

	mu          sync.Mutex
	lastApplied uint64 // raft index of last applied batch
	batches     int
	// appliedIDs maps each applied batch's idempotency ID to the raft index
	// of its first (and only executed) occurrence. Rebuilt from the WAL on
	// recovery, so deduplication decisions are identical across crashes and
	// across replicas: every replica sees the same committed sequence and
	// skips the same duplicates.
	appliedIDs  map[string]uint64
	deduped     int // duplicate batches skipped (idempotent resubmission)
	redelivered int // already-applied entries re-delivered by raft after restart

	// dedupWM is the acknowledged low-water mark: every ID first applied at
	// an index <= dedupWM has been acknowledged to its client, so no further
	// committed occurrence of it can exist and its dedup entry can go.
	// Pruning waits until lastApplied >= dedupWM — a duplicate occurrence
	// can commit anywhere up to the watermark.
	dedupWM    uint64
	dedupDirty bool

	snapCfg   SnapshotConfig
	lastSnap  uint64 // raft index of the newest taken or installed snapshot
	snapTaken int
	installed int // snapshots installed from a leader's InstallSnapshot

	// applyDelay throttles the apply loop (nanoseconds per batch) — the
	// chaos slow-apply fault: a replica that falls behind without crashing.
	applyDelay atomic.Int64

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	// runDone flips when the apply loop returns; on a simulated clock Stop
	// awaits it before wg.Wait (see raft.Node.Stop).
	runDone atomic.Bool
}

// SnapshotConfig enables periodic store snapshotting on a replica.
type SnapshotConfig struct {
	// Every takes a snapshot each time this many raft entries have been
	// applied since the last one (0 disables snapshotting).
	Every uint64
	// Dir is where encoded snapshot files land (required when the replica
	// also has a WAL: after a snapshot the WAL prefix is dropped, so
	// recovery depends on the snapshot file being there).
	Dir string
	// Compact, when non-nil, is invoked (asynchronously) with each new
	// snapshot so the consensus log can truncate below it — wire it to
	// raft.Node.Compact.
	Compact func(index uint64, data []byte) error
}

// EnableSnapshots configures periodic snapshotting. Must be called before
// Start.
func (r *Replica) EnableSnapshots(cfg SnapshotConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snapCfg = cfg
}

// New returns a replica applying batches through exec. wlog may be nil.
func New(id string, exec engine.Executor, st *store.Store, wlog *wal.Log) *Replica {
	return &Replica{
		ID: id, exec: exec, st: st, log: wlog, clk: vclock.Wall,
		appliedIDs: map[string]uint64{},
		stopCh:     make(chan struct{}),
	}
}

// SetClock sets the replica's time source (default: wall clock). Must be
// called before Start.
func (r *Replica) SetClock(clk vclock.Clock) { r.clk = vclock.Or(clk) }

// OnApply registers an observer called from the apply loop for every
// non-duplicate batch application, in apply order. Must be set before Start.
// Duplicate and re-delivered batches are not reported — the observer sees
// exactly the executed history.
func (r *Replica) OnApply(fn func(index uint64, id string, reqs []engine.Request, res *engine.BatchResult)) {
	r.onApply = fn
}

// Resume seeds the replica's apply position from a recovery, so that Raft's
// re-delivery of committed entries above the snapshot index skips everything
// the recovered store already contains. Must be called before Start.
func (r *Replica) Resume(rep RecoveryReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastApplied = rep.LastIndex
	r.batches = rep.Batches
	r.lastSnap = rep.SnapshotIndex
	r.dedupWM = rep.Watermark
	for id, idx := range rep.AppliedIDs {
		r.appliedIDs[id] = idx
	}
}

// Start launches the apply loop consuming committed entries.
func (r *Replica) Start(applyCh <-chan raft.Committed, onError func(error)) {
	r.wg.Add(1)
	if vclock.IsSim(r.clk) {
		vclock.GoNamed(r.clk, "apply:"+r.ID, func() { r.runSchedApply(applyCh, onError) })
		return
	}
	go r.runWallApply(applyCh, onError)
}

// runWallApply blocks on the apply channel directly (real time).
func (r *Replica) runWallApply(applyCh <-chan raft.Committed, onError func(error)) {
	defer r.wg.Done()
	defer r.runDone.Store(true)
	for {
		select {
		case <-r.stopCh:
			return
		case c := <-applyCh:
			if err := r.applyOne(c); err != nil {
				if onError != nil {
					onError(err)
				}
				return
			}
		}
	}
}

// runSchedApply drains the apply channel as an actor of a simulated clock:
// one committed record per iteration (each apply is followed by a Yield so
// the picker controls interleaving), parking idle when the channel is
// empty. Raft's deliverLocked publishes on every enqueue, so the actor is
// re-readied promptly; stop is polled first, so crash-stop needs no pending
// events to make progress.
func (r *Replica) runSchedApply(applyCh <-chan raft.Committed, onError func(error)) {
	defer r.wg.Done()
	defer r.runDone.Store(true)
	for {
		select {
		case <-r.stopCh:
			return
		default:
		}
		select {
		case c := <-applyCh:
			if err := r.applyOne(c); err != nil {
				if onError != nil {
					onError(err)
				}
				return
			}
			vclock.Yield(r.clk)
		default:
			vclock.Idle(r.clk)
		}
	}
}

// Stop terminates the apply loop.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	// On a simulated clock, let the loop actor observe the stop and exit
	// before blocking the baton on wg.Wait.
	vclock.Await(r.clk, r.runDone.Load)
	r.wg.Wait()
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
	if b.ID != "" {
		if _, dup := r.appliedIDs[b.ID]; dup {
			// A resubmitted batch committed twice (ambiguous leader change
			// mid-submit): execute the first occurrence only. The duplicate
			// is not WAL-logged either, so recovery replays it exactly once.
			r.deduped++
			r.lastApplied = c.Index
			r.pruneDedupLocked()
			r.mu.Unlock()
			return nil
		}
	}
	r.mu.Unlock()
	// Durability first: log the ordered batch (with its raft index, so
	// recovery reconstructs identical sequence numbers), then apply.
	// Recovery replays the log through a fresh engine; determinism
	// guarantees the same end state.
	if r.log != nil {
		if err := r.log.Append(envelope(c.Index, c.Cmd)); err != nil {
			return fmt.Errorf("replica %s: wal: %w", r.ID, err)
		}
	}
	res, err := r.exec.ExecuteBatch(b.Requests)
	if err != nil {
		return fmt.Errorf("replica %s: apply batch %d: %w", r.ID, c.Index, err)
	}
	if r.onApply != nil {
		r.onApply(c.Index, b.ID, b.Requests, res)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastApplied = c.Index
	r.batches++
	if b.ID != "" {
		r.appliedIDs[b.ID] = c.Index
	}
	r.pruneDedupLocked()
	if r.snapCfg.Every > 0 && r.lastApplied >= r.lastSnap+r.snapCfg.Every {
		if err := r.snapshotLocked(); err != nil {
			return fmt.Errorf("replica %s: snapshot at %d: %w", r.ID, c.Index, err)
		}
	}
	return nil
}

// snapshotLocked captures the store at the current apply position, persists
// the snapshot, drops the now-redundant WAL prefix, and hands the snapshot
// to the consensus layer for log compaction. Called from the apply loop, so
// the store is quiescent. The raft Compact call runs on its own goroutine:
// raft delivers committed entries while holding its lock, so calling back
// into it synchronously from the apply loop could deadlock on a full apply
// channel.
func (r *Replica) snapshotLocked() error {
	snap := &StoreSnapshot{
		Index:      r.lastApplied,
		Batches:    r.batches,
		Watermark:  r.dedupWM,
		AppliedIDs: make(map[string]uint64, len(r.appliedIDs)),
	}
	for id, idx := range r.appliedIDs {
		snap.AppliedIDs[id] = idx
	}
	snap.Pairs = CaptureStore(r.st)
	encoded, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	if r.snapCfg.Dir != "" {
		if err := WriteSnapshotFile(r.snapCfg.Dir, snap.Index, encoded); err != nil {
			return err
		}
		if r.log != nil {
			// Every WAL record is now <= snap.Index and covered by the
			// durable snapshot file: rotate and drop the old segments.
			if err := r.log.Rotate(); err != nil {
				return fmt.Errorf("wal rotate: %w", err)
			}
			if err := r.log.DropSegmentsBelow(r.log.CurrentSegment()); err != nil {
				return fmt.Errorf("wal compact: %w", err)
			}
		}
	}
	r.lastSnap = snap.Index
	r.snapTaken++
	if compact := r.snapCfg.Compact; compact != nil {
		idx := snap.Index
		// On a simulated clock this spawns a (short-lived) actor, so
		// compaction timing — which decides whether a lagging follower is
		// caught up by entry replay or InstallSnapshot — replays from the
		// seed instead of racing the apply loop.
		vclock.GoNamed(r.clk, "compact:"+r.ID, func() { _ = compact(idx, encoded) })
	}
	return nil
}

// installSnapshot restores the store from a leader-shipped snapshot — the
// catch-up path for a replica so far behind that the entries it needs were
// compacted away.
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
	RestoreStore(r.st, snap)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snapCfg.Dir != "" {
		// Persist the installed snapshot so a crash right after install
		// recovers from it, then drop the stale WAL prefix (every record
		// is below the snapshot index).
		if err := WriteSnapshotFile(r.snapCfg.Dir, snap.Index, c.Snapshot); err != nil {
			return fmt.Errorf("replica %s: install snapshot at %d: %w", r.ID, c.Index, err)
		}
		if r.log != nil {
			if err := r.log.Rotate(); err != nil {
				return fmt.Errorf("replica %s: install snapshot: wal rotate: %w", r.ID, err)
			}
			if err := r.log.DropSegmentsBelow(r.log.CurrentSegment()); err != nil {
				return fmt.Errorf("replica %s: install snapshot: wal compact: %w", r.ID, err)
			}
		}
	}
	r.lastApplied = c.Index
	r.batches = snap.Batches
	r.appliedIDs = make(map[string]uint64, len(snap.AppliedIDs))
	for id, idx := range snap.AppliedIDs {
		r.appliedIDs[id] = idx
	}
	if snap.Watermark > r.dedupWM {
		r.dedupWM = snap.Watermark
	}
	r.lastSnap = c.Index
	r.installed++
	return nil
}

// SetDedupWatermark raises the acknowledged low-water mark: the caller
// asserts that every batch ID first applied at an index <= wm has been
// acknowledged to its client, so no further committed occurrence of it can
// appear and its dedup entry may be dropped once this replica has applied
// through wm.
func (r *Replica) SetDedupWatermark(wm uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if wm > r.dedupWM {
		r.dedupWM = wm
		r.dedupDirty = true
	}
	r.pruneDedupLocked()
}

func (r *Replica) pruneDedupLocked() {
	if !r.dedupDirty || r.lastApplied < r.dedupWM {
		return
	}
	for id, idx := range r.appliedIDs {
		if idx <= r.dedupWM {
			delete(r.appliedIDs, id)
		}
	}
	r.dedupDirty = false
}

// AppliedID reports whether a batch with the given idempotency ID has been
// applied by this replica (and not yet pruned past the dedup watermark).
func (r *Replica) AppliedID(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.appliedIDs[id]
	return ok
}

// LastApplied returns the Raft index of the last applied batch.
func (r *Replica) LastApplied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastApplied
}

// Batches returns the number of batches this replica's store state
// reflects: batches executed live plus batches replayed from the WAL at
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

// DedupSize returns the number of live entries in the dedup table — bounded
// by watermark pruning, not by deployment lifetime.
func (r *Replica) DedupSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.appliedIDs)
}

// DedupWatermark returns the acknowledged low-water mark.
func (r *Replica) DedupWatermark() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dedupWM
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

// --- WAL record envelope ---

// Replica WAL records are framed as an 8-byte little-endian raft index
// followed by the committed batch payload. Persisting the index keeps
// recovered sequence numbers (derived from the index) identical to the
// original execution even when deduplicated batches leave gaps in the
// logged index sequence.
const envelopeHeader = 8

func envelope(idx uint64, cmd []byte) []byte {
	out := make([]byte, envelopeHeader+len(cmd))
	binary.LittleEndian.PutUint64(out[:envelopeHeader], idx)
	copy(out[envelopeHeader:], cmd)
	return out
}

func parseEnvelope(payload []byte) (uint64, []byte, error) {
	if len(payload) < envelopeHeader {
		return 0, nil, fmt.Errorf("replica: wal record too short (%d bytes)", len(payload))
	}
	return binary.LittleEndian.Uint64(payload[:envelopeHeader]), payload[envelopeHeader:], nil
}

// RecoveryReport summarizes a recovery: what was restored and replayed, and
// what, if anything, a corrupted tail cost.
type RecoveryReport struct {
	// Batches is the number of batches the recovered store reflects:
	// snapshot batches plus WAL-suffix batches replayed into the executor.
	Batches int
	// LastIndex is the raft index of the last recovered batch (the resume
	// point: Raft redelivery catches the replica up from here).
	LastIndex uint64
	// FromSnapshot reports whether a snapshot seeded the store; if so
	// SnapshotIndex is its raft index and only WAL records above it were
	// replayed.
	FromSnapshot  bool
	SnapshotIndex uint64
	// Watermark is the recovered dedup low-water mark.
	Watermark uint64
	// AppliedIDs maps recovered batch idempotency IDs to their raft index.
	AppliedIDs map[string]uint64
	// WAL reports the physical repair: whether a torn or corrupted tail was
	// truncated and how many bytes of unreplayable suffix were discarded
	// (those batches are re-fetched through Raft, not lost).
	WAL wal.Stats
}

// Recover rebuilds the store state of a crashed replica by replaying its WAL
// directory through exec. The log is first repaired — truncated at the first
// torn or corrupted record — so the surviving prefix is exactly what is
// replayed and subsequent appends extend a verified-clean log. The report
// says how many batches were replayed, where to resume, and how much the
// corruption (if any) cost.
func Recover(dir string, exec engine.Executor) (RecoveryReport, error) {
	return RecoverWithSnapshot(dir, "", exec, nil)
}

// RecoverWithSnapshot is Recover preferring snapshot + WAL-suffix recovery:
// if snapDir holds a parseable snapshot, the store is restored from it and
// only WAL records ABOVE the snapshot index are replayed through exec —
// recovery work is bounded by the snapshot interval, not the deployment
// lifetime. With no usable snapshot (or snapDir == "") the whole WAL is
// replayed, exactly like Recover.
func RecoverWithSnapshot(walDir, snapDir string, exec engine.Executor, st *store.Store) (RecoveryReport, error) {
	rep := RecoveryReport{AppliedIDs: map[string]uint64{}}
	if snap, err := LoadSnapshotFile(snapDir); err == nil && snap != nil && st != nil {
		RestoreStore(st, snap)
		rep.FromSnapshot = true
		rep.SnapshotIndex = snap.Index
		rep.LastIndex = snap.Index
		rep.Batches = snap.Batches
		rep.Watermark = snap.Watermark
		for id, idx := range snap.AppliedIDs {
			rep.AppliedIDs[id] = idx
		}
	}
	stats, err := wal.Repair(walDir)
	if err != nil {
		return rep, fmt.Errorf("replica: recover repair: %w", err)
	}
	rep.WAL = stats
	err = wal.Replay(walDir, func(payload []byte) error {
		idx, cmd, err := parseEnvelope(payload)
		if err != nil {
			return err
		}
		if rep.FromSnapshot && idx <= rep.SnapshotIndex {
			// Covered by the snapshot (a prefix the compaction had not
			// dropped yet): skip, don't double-apply.
			return nil
		}
		b, err := sequencer.DecodeBatch(raft.Committed{Index: idx, Cmd: cmd})
		if err != nil {
			return err
		}
		if _, err := exec.ExecuteBatch(b.Requests); err != nil {
			return err
		}
		rep.Batches++
		rep.LastIndex = idx
		if b.ID != "" {
			rep.AppliedIDs[b.ID] = idx
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("replica: recover: %w", err)
	}
	return rep, nil
}

// Cluster is an in-process deployment: N Raft nodes, one replica each, and
// a dispatcher per node. It is the top-level object the examples, tests,
// cmd/replicad and the chaos harness drive. Consensus traffic flows over
// simulated channels (memnet, the default) or real loopback TCP sockets
// (tcpnet). With DataDir set, every node persists its Raft state and its
// replica WAL, enabling per-replica Crash and Restart.
//
// The exported slices are stable for the lifetime of the cluster object;
// their ELEMENTS are replaced by Restart. Code that may run concurrently
// with crash/restart (the chaos harness, SubmitBatch retries) must use the
// accessor methods, which lock.
type Cluster struct {
	Net         *memnet.Network // nil when running over TCP
	Endpoints   []*tcpnet.Endpoint
	Nodes       []*raft.Node
	Replicas    []*Replica
	Dispatchers []*sequencer.Dispatcher

	cfg      ClusterConfig
	clk      vclock.Clock
	ids      []string
	dataDir  string
	idPrefix string // boot nonce making batch IDs unique across cluster lifetimes
	tcpDir   *tcpnet.Directory

	flow *flowctl.Controller

	mu          sync.Mutex
	down        []bool
	generations []int
	storages    []*raft.FileStorage
	wlogs       []*wal.Log
	recoveries  []RecoveryReport
	batchSeq    uint64
	applyDelays []time.Duration // reapplied on Restart (slow-apply fault)
	lossProb    float64         // fault state reapplied to restarted endpoints
	delayMin    time.Duration
	delayMax    time.Duration

	// floors tracks, per in-flight or abandoned batch ID, the leader commit
	// index observed just before its FIRST proposal. By leader completeness
	// every committed occurrence of that ID sits at an index above its floor,
	// so min(floors) bounds how far the dedup watermark may advance while
	// submissions run concurrently (see ackCommit).
	floorMu sync.Mutex
	floors  map[string]*submitFloor

	errMu sync.Mutex
	err   error
}

// submitFloor is the dedup-safety record for one submitted batch ID.
type submitFloor struct {
	// floor is the leader commit index read immediately before the first
	// proposal: every occurrence of the ID commits strictly above it.
	floor uint64
	// maxIdx is the highest raft index any proposal of this ID received.
	maxIdx uint64
	// zombie marks an abandoned submission (deadline or budget ran out after
	// a proposal): the client got an ambiguous error and will not resubmit,
	// but an occurrence may still commit. The floor must keep holding the
	// watermark back until the leader's commit index passes maxIdx — beyond
	// that point no occurrence can newly commit (entries at or below the
	// commit frontier are final; overwritten proposals can never win), so the
	// record can be dropped.
	zombie bool
}

// ClusterConfig configures NewCluster.
type ClusterConfig struct {
	Replicas int
	Seed     int64
	// NewExecutor builds each replica's executor over its private store. It
	// is called again on Restart: the factory must produce the same initial
	// state (e.g. the same Populate) so WAL replay rebuilds on top of it.
	NewExecutor func(replicaID string, st *store.Store) (engine.Executor, error)
	// Raft overrides the consensus timing (zero = defaults).
	Raft raft.Config
	// TCP routes consensus over real loopback sockets instead of the
	// in-process simulated network. Crash closes the node's endpoint;
	// Restart re-listens on a fresh port and the directory re-routes peers.
	TCP bool
	// SnapshotEvery, with DataDir set, makes each replica capture a store
	// snapshot every N applied entries, compact its raft log below it and
	// prune its WAL prefix (0 disables snapshotting).
	SnapshotEvery uint64
	// DataDir enables durability: node i persists its Raft state under
	// DataDir/<id>/raft and its replica WAL under DataDir/<id>/wal.
	// Required for Crash/Restart (a node restarting without persisted
	// term/vote could double-vote).
	DataDir string
	// WALSync selects the replica WAL fsync policy (default SyncOS: the
	// in-process fault model crashes goroutines, not machines).
	WALSync wal.SyncPolicy
	// QuorumSubmit makes SubmitBatch report success once a majority of
	// replicas applied the batch (the committed entry is durable; laggards
	// catch up through Raft). Default false waits for every live replica —
	// the right semantics when callers compare all state hashes immediately
	// after submit.
	QuorumSubmit bool
	// Flow is the admission/retry policy enforced on the submit path. The
	// zero value disables every limit (unbounded queues, unlimited retries),
	// preserving pre-flow-control behavior; Flow.Seed defaults to Seed so a
	// seeded cluster has fully deterministic backoff jitter.
	Flow flowctl.Config
	// SubmitWindow bounds how long one proposal is waited on before the
	// batch is re-proposed (idempotently) through the then-current leader
	// (default 2s). A proposal can be lost without any error signal when its
	// leader crashes after accepting it but before replicating it; chaos and
	// slow-apply scenarios tune this down to re-route faster.
	SubmitWindow time.Duration
	// Clock is the time source threaded through every layer: raft timers,
	// flow control, memnet delays, apply throttles, and all submit-path
	// deadlines. Nil uses the wall clock. A vclock.Sim clock runs the whole
	// cluster in virtual time, making a run a pure function of (Seed, config);
	// the cluster must then be built and driven from inside that clock's
	// Sim.Run. Not supported with TCP (real sockets need real time).
	Clock vclock.Clock
	// OnApply, when non-nil, observes every non-duplicate batch application
	// on every replica (the history recorder's tap): replica ID, raft index,
	// batch idempotency ID, the ordered requests and their outcomes.
	OnApply func(replicaID string, index uint64, batchID string, reqs []engine.Request, res *engine.BatchResult)
}

// NewCluster assembles and starts an in-process cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.NewExecutor == nil {
		return nil, fmt.Errorf("replica: cluster needs a NewExecutor factory")
	}
	if cfg.SubmitWindow == 0 {
		cfg.SubmitWindow = defaultSubmitWindow
	}
	if cfg.Flow.Seed == 0 {
		cfg.Flow.Seed = cfg.Seed
	}
	if cfg.TCP && vclock.IsSim(cfg.Clock) {
		return nil, fmt.Errorf("replica: simulated clock is not supported over TCP (real sockets need real time)")
	}
	clk := vclock.Or(cfg.Clock)
	if cfg.Flow.Clock == nil {
		cfg.Flow.Clock = clk
	}
	if cfg.Raft.Clock == nil {
		cfg.Raft.Clock = clk
	}
	c := &Cluster{
		cfg:     cfg,
		clk:     clk,
		dataDir: cfg.DataDir,
		// The boot nonce comes from the injected clock: under simulation the
		// virtual epoch is fixed, so batch IDs — and everything derived from
		// them — are identical across same-seed runs.
		idPrefix: fmt.Sprintf("%x", clk.Now().UnixNano()),
		flow:     flowctl.NewController(cfg.Flow),
		floors:   map[string]*submitFloor{},
	}
	n := cfg.Replicas
	c.ids = make([]string, n)
	for i := range c.ids {
		c.ids[i] = fmt.Sprintf("replica-%d", i)
	}
	c.Nodes = make([]*raft.Node, n)
	c.Replicas = make([]*Replica, n)
	c.Dispatchers = make([]*sequencer.Dispatcher, n)
	c.down = make([]bool, n)
	c.generations = make([]int, n)
	c.storages = make([]*raft.FileStorage, n)
	c.wlogs = make([]*wal.Log, n)
	c.recoveries = make([]RecoveryReport, n)
	c.applyDelays = make([]time.Duration, n)
	if cfg.TCP {
		tcpnet.Register(raft.WireTypes()...)
		c.tcpDir = tcpnet.NewDirectory()
		c.Endpoints = make([]*tcpnet.Endpoint, n)
	} else {
		c.Net = memnet.NewWithClock(cfg.Seed, clk)
	}
	for i := range c.ids {
		if err := c.startNode(i); err != nil {
			return nil, err
		}
	}
	for i := range c.Nodes {
		c.launch(i)
	}
	return c, nil
}

// startNode builds (or rebuilds, on restart) node i: transport endpoint,
// raft node with optional persistent storage, a fresh store recovered from
// the newest snapshot plus the WAL suffix above it, and a dispatcher. It
// does not start the event loops. Callers hold no cluster lock; the built
// components are installed under c.mu.
func (c *Cluster) startNode(i int) error {
	id := c.ids[i]
	c.mu.Lock()
	gen := c.generations[i]
	c.mu.Unlock()
	seed := c.cfg.Seed + int64(i)*7919 + int64(gen)*104729
	var node *raft.Node
	var ep *tcpnet.Endpoint
	if c.cfg.TCP {
		var err error
		ep, err = tcpnet.Listen(id, "127.0.0.1:0", c.tcpDir)
		if err != nil {
			return fmt.Errorf("replica: cluster transport for %s: %w", id, err)
		}
		node = raft.NewNodeWithTransport(id, c.ids, ep, c.cfg.Raft, seed)
	} else {
		node = raft.NewNode(id, c.ids, c.Net, c.cfg.Raft, seed)
	}
	fail := func(err error) error {
		if ep != nil {
			ep.Close()
		}
		return err
	}
	var storage *raft.FileStorage
	if c.dataDir != "" {
		stg, err := raft.OpenFileStorage(filepath.Join(c.dataDir, id, "raft"))
		if err != nil {
			return fail(fmt.Errorf("replica: cluster raft storage for %s: %w", id, err))
		}
		if err := node.UseStorage(stg); err != nil {
			_ = stg.Close()
			return fail(fmt.Errorf("replica: cluster raft storage for %s: %w", id, err))
		}
		storage = stg
	}
	st := store.New()
	exec, err := c.cfg.NewExecutor(id, st)
	if err != nil {
		if storage != nil {
			_ = storage.Close()
		}
		return fail(fmt.Errorf("replica: cluster executor for %s: %w", id, err))
	}
	var wlog *wal.Log
	var recovered RecoveryReport
	if c.dataDir != "" {
		wdir := c.WALDir(i)
		recovered, err = RecoverWithSnapshot(wdir, c.SnapDir(i), exec, st)
		if err != nil {
			_ = storage.Close()
			return fail(fmt.Errorf("replica: cluster recovery for %s: %w", id, err))
		}
		wlog, err = wal.Open(wdir, wal.Options{Sync: c.cfg.WALSync})
		if err != nil {
			_ = storage.Close()
			return fail(fmt.Errorf("replica: cluster wal for %s: %w", id, err))
		}
	}
	rep := New(id, exec, st, wlog)
	rep.SetClock(c.clk)
	if onApply := c.cfg.OnApply; onApply != nil {
		rep.OnApply(func(index uint64, batchID string, reqs []engine.Request, res *engine.BatchResult) {
			onApply(id, index, batchID, reqs, res)
		})
	}
	rep.Resume(recovered)
	if c.cfg.SnapshotEvery > 0 && c.dataDir != "" {
		rep.EnableSnapshots(SnapshotConfig{
			Every:   c.cfg.SnapshotEvery,
			Dir:     c.SnapDir(i),
			Compact: node.Compact,
		})
	}
	disp := sequencer.NewDispatcher(node)
	disp.SetMaxQueue(c.cfg.Flow.MaxQueue)
	c.mu.Lock()
	c.Nodes[i] = node
	c.Replicas[i] = rep
	c.Dispatchers[i] = disp
	c.storages[i] = storage
	c.wlogs[i] = wlog
	c.recoveries[i] = recovered
	// A restarted node rejoins with the cluster's standing fault state: the
	// slow-apply throttle and, over TCP, the per-endpoint loss/delay (memnet
	// keeps its own state across restarts; a fresh TCP endpoint starts clean).
	rep.SetApplyDelay(c.applyDelays[i])
	if c.cfg.TCP {
		c.Endpoints[i] = ep
		if c.lossProb > 0 || c.delayMax > 0 {
			ep.SetFault(c.lossProb, c.delayMin, c.delayMax, c.cfg.Seed+int64(i))
		}
	}
	c.mu.Unlock()
	return nil
}

// launch starts node i's event loops.
func (c *Cluster) launch(i int) {
	node, rep := c.node(i), c.replica(i)
	node.Start()
	rep.Start(node.Apply(), c.recordErr)
}

// --- locked accessors (safe against concurrent Restart) ---

func (c *Cluster) node(i int) *raft.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Nodes[i]
}

func (c *Cluster) replica(i int) *Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Replicas[i]
}

func (c *Cluster) dispatcher(i int) *sequencer.Dispatcher {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Dispatchers[i]
}

// NodeAt returns node i (safe against concurrent Restart).
func (c *Cluster) NodeAt(i int) *raft.Node { return c.node(i) }

// ReplicaAt returns replica i (safe against concurrent Restart).
func (c *Cluster) ReplicaAt(i int) *Replica { return c.replica(i) }

// IDs returns the member names, index-aligned with the replica slices.
func (c *Cluster) IDs() []string {
	out := make([]string, len(c.ids))
	copy(out, c.ids)
	return out
}

// Size returns the cluster membership size.
func (c *Cluster) Size() int { return len(c.ids) }

// WALDir returns replica i's WAL directory ("" without persistence).
func (c *Cluster) WALDir(i int) string {
	if c.dataDir == "" {
		return ""
	}
	return filepath.Join(c.dataDir, c.ids[i], "wal")
}

// RaftDir returns node i's Raft storage directory ("" without persistence).
func (c *Cluster) RaftDir(i int) string {
	if c.dataDir == "" {
		return ""
	}
	return filepath.Join(c.dataDir, c.ids[i], "raft")
}

// SnapDir returns replica i's snapshot directory ("" without persistence).
func (c *Cluster) SnapDir(i int) string {
	if c.dataDir == "" {
		return ""
	}
	return filepath.Join(c.dataDir, c.ids[i], "snap")
}

// LastRecovery returns the recovery report from replica i's most recent
// (re)start — the initial boot, or the latest Restart.
func (c *Cluster) LastRecovery(i int) RecoveryReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recoveries[i]
}

// IsDown reports whether replica i is currently crashed.
func (c *Cluster) IsDown(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[i]
}

// DownReplicas returns the indices of currently crashed replicas.
func (c *Cluster) DownReplicas() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i, d := range c.down {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// Crash stops replica i like a process kill: its apply loop and Raft node
// halt, its network presence disappears (memnet SetDown, or the TCP endpoint
// closes), and its WAL and Raft storage files are closed. State survives on
// disk; the node rejoins via Restart. Requires persistence (DataDir).
func (c *Cluster) Crash(i int) error {
	if c.dataDir == "" {
		return fmt.Errorf("replica: crash requires DataDir persistence (a node without persisted term/vote could double-vote on rejoin)")
	}
	c.mu.Lock()
	if c.down[i] {
		c.mu.Unlock()
		return fmt.Errorf("replica: %s is already down", c.ids[i])
	}
	c.down[i] = true
	node, rep := c.Nodes[i], c.Replicas[i]
	storage, wlog := c.storages[i], c.wlogs[i]
	var ep *tcpnet.Endpoint
	if c.cfg.TCP {
		ep = c.Endpoints[i]
	}
	c.mu.Unlock()
	// Cut network traffic first (the node is gone from the fabric), then
	// stop the loops, then close the files they were writing. Over TCP the
	// endpoint close kills the listener and every open connection; peers'
	// sends fail and drop, exactly like datagrams to a dead host.
	if c.Net != nil {
		c.Net.SetDown(c.ids[i], true)
	}
	if ep != nil {
		ep.Close()
	}
	rep.Stop()
	node.Stop()
	if wlog != nil {
		_ = wlog.Close()
	}
	if storage != nil {
		_ = storage.Close()
	}
	return nil
}

// Restart rejoins a crashed replica: a fresh store is rebuilt from its
// newest snapshot plus the (repaired) WAL suffix above it, the Raft node
// reloads its persisted term/vote/snapshot/log, and re-delivery from the
// live leader catches the replica up to the commit index. The executor is
// rebuilt through the NewExecutor factory. Over TCP the node re-listens on a
// fresh port; the shared directory re-routes peers on their next dial.
func (c *Cluster) Restart(i int) error {
	c.mu.Lock()
	if !c.down[i] {
		c.mu.Unlock()
		return fmt.Errorf("replica: %s is not down", c.ids[i])
	}
	c.generations[i]++
	c.mu.Unlock()
	if c.Net != nil {
		// A fresh process would not see datagrams addressed to its previous
		// life: drain the inbox before rejoining the fabric.
		c.Net.Drain(c.ids[i])
		c.Net.SetDown(c.ids[i], false)
	}
	if err := c.startNode(i); err != nil {
		if c.Net != nil {
			c.Net.SetDown(c.ids[i], true)
		}
		return err
	}
	c.launch(i)
	c.mu.Lock()
	c.down[i] = false
	c.mu.Unlock()
	return nil
}

func (c *Cluster) recordErr(err error) {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

// Err returns the first replica apply error, if any.
func (c *Cluster) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	for i := range c.ids {
		c.replica(i).Stop()
	}
	for i := range c.ids {
		c.node(i).Stop()
	}
	c.mu.Lock()
	storages, wlogs := c.storages, c.wlogs
	c.mu.Unlock()
	for _, w := range wlogs {
		if w != nil {
			_ = w.Close()
		}
	}
	for _, s := range storages {
		if s != nil {
			_ = s.Close()
		}
	}
	if c.Net != nil {
		c.Net.Close()
	}
	for _, ep := range c.Endpoints {
		ep.Close()
	}
}

// Flow returns the cluster's flow-control controller (admission counters,
// inflight gauges, breaker state).
func (c *Cluster) Flow() *flowctl.Controller { return c.flow }

// Clock returns the cluster's time source — the injected simulated clock in
// deterministic tests, wall time otherwise. Chaos injectors use it to place
// scheduler yield points at fault anchors.
func (c *Cluster) Clock() vclock.Clock { return c.clk }

// QueueHighWater returns the deepest any live dispatcher's request queue has
// been — the overload-soak assertion that the configured bound held.
func (c *Cluster) QueueHighWater() int {
	hw := 0
	for i := range c.ids {
		if q := c.dispatcher(i).QueueHighWater(); q > hw {
			hw = q
		}
	}
	return hw
}

// SetApplyDelay throttles replica i's apply loop (the chaos slow-apply
// fault; 0 restores full speed). The throttle survives Crash/Restart.
func (c *Cluster) SetApplyDelay(i int, d time.Duration) {
	c.mu.Lock()
	c.applyDelays[i] = d
	rep := c.Replicas[i]
	c.mu.Unlock()
	rep.SetApplyDelay(d)
}

// SetLoss sets the cluster-wide message-loss probability, on either
// transport: the memnet fabric, or per-endpoint injection over real TCP
// sockets. Restarted TCP endpoints rejoin with the standing fault.
func (c *Cluster) SetLoss(p float64) {
	c.mu.Lock()
	c.lossProb = p
	c.mu.Unlock()
	c.applyNetFaults()
}

// SetDelay sets the cluster-wide artificial delivery delay range on either
// transport (0,0 clears it).
func (c *Cluster) SetDelay(min, max time.Duration) {
	c.mu.Lock()
	c.delayMin, c.delayMax = min, max
	c.mu.Unlock()
	c.applyNetFaults()
}

func (c *Cluster) applyNetFaults() {
	c.mu.Lock()
	loss, dmin, dmax := c.lossProb, c.delayMin, c.delayMax
	var eps []*tcpnet.Endpoint
	if c.cfg.TCP {
		eps = make([]*tcpnet.Endpoint, len(c.Endpoints))
		copy(eps, c.Endpoints)
	}
	c.mu.Unlock()
	if c.Net != nil {
		c.Net.SetLoss(loss)
		c.Net.SetDelay(dmin, dmax)
		return
	}
	for i, ep := range eps {
		if ep != nil && !c.IsDown(i) {
			ep.SetFault(loss, dmin, dmax, c.cfg.Seed+int64(i))
		}
	}
}

// WaitLeader blocks until some live node is leader, returning its index.
// When several nodes claim leadership (a stale leader isolated in a minority
// partition never learns it was deposed), the claimant with the highest term
// wins — only it can commit.
func (c *Cluster) WaitLeader(within time.Duration) (int, error) {
	return c.waitLeader(flowctl.AfterClock(c.clk, within))
}

func (c *Cluster) waitLeader(dl flowctl.Deadline) (int, error) {
	bo := c.flow.NewBackoff()
	for {
		best, bestTerm := -1, uint64(0)
		for i := range c.ids {
			if c.IsDown(i) {
				continue
			}
			if role, term := c.node(i).Status(); role == raft.Leader && term > bestTerm {
				best, bestTerm = i, term
			}
		}
		if best >= 0 {
			return best, nil
		}
		if err := bo.Sleep(dl); err != nil {
			return -1, fmt.Errorf("replica: no leader: %w", err)
		}
	}
}

// defaultSubmitWindow is the ClusterConfig.SubmitWindow default: how long
// one proposal is waited on before the batch is re-proposed (idempotently)
// through the then-current leader.
const defaultSubmitWindow = 2 * time.Second

// Request is one submit-path transaction invocation. It is a type alias for
// the anonymous struct SubmitBatch has always accepted, so existing
// composite-literal call sites keep compiling unchanged.
type Request = struct {
	TxName string
	Inputs map[string]value.Value
}

// SubmitBatch routes one batch of requests through the current leader and
// waits until the replicas have applied it: every live replica by default, a
// majority with ClusterConfig.QuorumSubmit. The batch carries a unique
// idempotency ID, so when its outcome turns ambiguous — the leader crashed
// or was deposed after Propose, mid-replication — the SAME batch is safely
// re-proposed through the new leader: replicas execute the first committed
// occurrence and skip duplicates. Exactly-once application, at-least-once
// submission.
//
// The ClusterConfig.Flow policy gates the whole call: admission (inflight
// limit, rate bucket, circuit breaker) may shed it with an error wrapping
// flowctl.ErrOverload — shed batches were certainly never proposed or
// applied — and each re-proposal spends the retry budget. Every wait runs on
// seeded jittered backoff under the caller's deadline.
func (c *Cluster) SubmitBatch(reqs []Request, within time.Duration) error {
	return c.SubmitBatchDeadline(reqs, flowctl.AfterClock(c.clk, within))
}

// SubmitBatchDeadline is SubmitBatch under an explicit propagated deadline:
// leader routing, the proposal, and the apply wait all share dl's budget and
// none waits past it.
func (c *Cluster) SubmitBatchDeadline(reqs []Request, dl flowctl.Deadline) error {
	release, err := c.flow.Admit()
	if err != nil {
		return fmt.Errorf("replica: submit: %w", err)
	}
	defer release()
	c.mu.Lock()
	c.batchSeq++
	id := fmt.Sprintf("%s-%d", c.idPrefix, c.batchSeq)
	c.mu.Unlock()
	ereqs := make([]engine.Request, len(reqs))
	for i, r := range reqs {
		ereqs[i] = engine.Request{TxName: r.TxName, Inputs: r.Inputs}
	}
	bo := c.flow.NewBackoff()
	proposed := false
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := c.flow.AllowRetry(); err != nil {
				c.finishSubmit(id, proposed)
				return fmt.Errorf("replica: batch %s: %w", id, err)
			}
		}
		li, err := c.waitLeader(dl)
		if err != nil {
			c.finishSubmit(id, proposed)
			return err
		}
		d := c.dispatcher(li)
		// The floor must be on record before the first proposal exists
		// anywhere: every occurrence of this ID will commit above it.
		c.registerFloor(id, d.CommitIndex())
		idx, err := d.ProposeBatch(id, ereqs)
		if err != nil {
			if !errors.Is(err, sequencer.ErrNotLeader) {
				c.finishSubmit(id, proposed)
				return err
			}
			// Leadership moved between waitLeader and the proposal: nothing
			// was proposed on this node; back off and re-route.
			c.flow.RecordRouteFailure()
			if serr := bo.Sleep(dl); serr != nil {
				c.finishSubmit(id, proposed)
				return fmt.Errorf("replica: batch %s: no stable leader: %w", id, serr)
			}
			continue
		}
		c.flow.RecordRouteSuccess()
		proposed = true
		c.noteProposed(id, idx)
		bo.Reset() // apply-wait polls restart from the small first steps
		wdl := dl.Bound(c.cfg.SubmitWindow)
		for {
			if err := c.Err(); err != nil {
				c.finishSubmit(id, proposed)
				return err
			}
			if c.appliedBatch(id) {
				c.flow.RecordSuccess()
				c.ackCommit(li, id)
				return nil
			}
			if bo.Sleep(wdl) != nil {
				break // attempt window over: re-route, or fail at the deadline
			}
		}
		if dl.Expired() {
			c.finishSubmit(id, proposed)
			return fmt.Errorf("replica: batch %s (index %d) not applied: %w",
				id, idx, flowctl.ErrDeadlineExceeded)
		}
		// Ambiguous: the proposal may or may not have committed. Re-propose
		// the same ID through whoever leads now; apply-time dedup makes the
		// retry idempotent.
	}
}

// registerFloor records the pre-proposal commit floor for a batch ID; only
// the first call per ID sticks (retries keep the original, lower floor).
func (c *Cluster) registerFloor(id string, commit uint64) {
	c.floorMu.Lock()
	defer c.floorMu.Unlock()
	if _, ok := c.floors[id]; !ok {
		c.floors[id] = &submitFloor{floor: commit}
	}
}

// noteProposed records the raft index a proposal of this ID received.
func (c *Cluster) noteProposed(id string, idx uint64) {
	c.floorMu.Lock()
	defer c.floorMu.Unlock()
	if f, ok := c.floors[id]; ok && idx > f.maxIdx {
		f.maxIdx = idx
	}
}

// finishSubmit closes out a failed submission's floor. A batch that was
// never successfully proposed cannot have committed anywhere — its floor is
// simply dropped (and the shed/lost error already told the caller it was not
// applied). A batch abandoned after a proposal turns into a zombie floor: it
// keeps holding the dedup watermark back until the commit frontier passes
// its last proposed index, after which its committed-occurrence set is final
// and ackCommit sweeps it.
func (c *Cluster) finishSubmit(id string, proposed bool) {
	c.floorMu.Lock()
	defer c.floorMu.Unlock()
	f, ok := c.floors[id]
	if !ok {
		return
	}
	if !proposed || f.maxIdx == 0 {
		delete(c.floors, id)
		return
	}
	f.zombie = true
}

// ackCommit propagates the dedup low-water mark after a batch is
// acknowledged. With concurrent submitters the leader's commit index alone
// is NOT a safe prune point — another in-flight ID may have committed below
// it and still get re-proposed above it, and pruning its entry would
// double-apply the retry. Every occurrence of an in-flight ID commits above
// that ID's registered floor, so the watermark advances to the minimum of
// the leader's commit index and every other outstanding floor.
//
// An acknowledged or abandoned ID that was proposed more than once may
// still have a committed occurrence above its first: its floor stays as a
// zombie until the watermark computed WITHOUT it already covers its last
// proposed index. Only then is pruning safe — any watermark high enough to
// drop the ID's first occurrence is then also past its last, so no replica
// can prune the entry and later meet a committed duplicate.
func (c *Cluster) ackCommit(leader int, id string) {
	commit := c.dispatcher(leader).CommitIndex()
	c.floorMu.Lock()
	if f, ok := c.floors[id]; ok {
		f.zombie = true
	}
	// An active floor caps the watermark below its ID's first possible
	// occurrence. A zombie is safe in either direction: watermark at or
	// below its floor (its entries stay) or at or above its last proposed
	// index (every occurrence is covered, so the prune cannot strand a
	// later duplicate). Start from the commit frontier capped by active
	// floors and lower it until every zombie satisfies one side.
	wm := commit
	for _, f := range c.floors {
		if !f.zombie && f.floor < wm {
			wm = f.floor
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range c.floors {
			if f.zombie && f.maxIdx > wm && f.floor < wm {
				wm = f.floor
				changed = true
			}
		}
	}
	// Zombies fully covered by the watermark can never constrain it again:
	// it only advances from here.
	for zid, f := range c.floors {
		if f.zombie && f.maxIdx <= wm {
			delete(c.floors, zid)
		}
	}
	c.floorMu.Unlock()
	for i := range c.ids {
		if c.IsDown(i) {
			continue
		}
		c.replica(i).SetDedupWatermark(wm)
	}
}

// appliedBatch reports whether enough replicas have applied the batch with
// the given idempotency ID: all live replicas, or a majority of the
// membership with QuorumSubmit. The check is by ID, not by raft index — a
// deposed leader's proposal can be overwritten, letting the apply index
// sail past the proposal's slot without the batch ever committing. The
// submitter's own floor keeps the watermark below the ID's first
// occurrence, so the dedup entry consulted here cannot be pruned while the
// submit is still in flight.
func (c *Cluster) appliedBatch(id string) bool {
	applied, live := 0, 0
	for i := range c.ids {
		if c.IsDown(i) {
			continue
		}
		live++
		if c.replica(i).AppliedID(id) {
			applied++
		}
	}
	if c.cfg.QuorumSubmit {
		return applied >= len(c.ids)/2+1
	}
	return live > 0 && applied == live
}

// WaitCaughtUp blocks until every live replica has applied at least the
// leader's current commit index (and a leader exists). After a Restart and a
// Heal, this is the quiesce point where all state hashes must agree.
func (c *Cluster) WaitCaughtUp(within time.Duration) error {
	dl := flowctl.AfterClock(c.clk, within)
	bo := c.flow.NewBackoff()
	for {
		if err := c.Err(); err != nil {
			return err
		}
		li, err := c.waitLeader(dl)
		if err != nil {
			return err
		}
		target := c.node(li).CommitIndex()
		done := true
		for i := range c.ids {
			if c.IsDown(i) {
				continue
			}
			if c.replica(i).LastApplied() < target {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if err := bo.Sleep(dl); err != nil {
			return fmt.Errorf("replica: not caught up to index %d within %v: %w", target, within, err)
		}
	}
}

// WaitSnapshot blocks until node i's raft log has been compacted at or above
// minIndex — the handshake a test (or operator) uses to know the replica's
// snapshot both exists on disk and has truncated the consensus log.
func (c *Cluster) WaitSnapshot(i int, minIndex uint64, within time.Duration) error {
	dl := flowctl.AfterClock(c.clk, within)
	bo := c.flow.NewBackoff()
	for {
		if got := c.node(i).SnapshotIndex(); got >= minIndex {
			return nil
		}
		if err := bo.Sleep(dl); err != nil {
			return fmt.Errorf("replica: %s not compacted to %d within %v (at %d): %w",
				c.ids[i], minIndex, within, c.node(i).SnapshotIndex(), err)
		}
	}
}

// StateHashes returns every replica's state hash (crashed replicas report
// their state as of the crash).
func (c *Cluster) StateHashes() []uint64 {
	out := make([]uint64, len(c.ids))
	for i := range c.ids {
		out[i] = c.replica(i).StateHash()
	}
	return out
}

// Converged reports whether all replicas currently hash identically.
func (c *Cluster) Converged() bool {
	hs := c.StateHashes()
	for _, h := range hs[1:] {
		if h != hs[0] {
			return false
		}
	}
	return true
}
