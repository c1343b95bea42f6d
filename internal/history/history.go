// Package history records the read/write footprints of committed
// transactions from a running cluster and checks the recorded history for
// serializability.
//
// The recorder taps the replica apply path (replica.ClusterConfig.OnApply):
// every replica reports every applied batch, and the recorder deduplicates
// by batch name — replicas are deterministic, so any one replica's report of a
// batch is as good as another's. Footprints come from the engine's
// RecordFootprints mode: per committed transaction, the first read of each
// key (a value fingerprint observed in committed state) and the final write
// per key.
//
// The checker exploits the known commit order instead of searching over
// permutations: a deterministic database promises equivalence to one
// specific serial order, so the checker replays that order and verifies
// every read, and independently builds the direct serialization graph
// (WR/WW/RW edges) and searches it for cycles. See Check.
package history

import (
	"fmt"
	"sort"
	"sync"

	"prognosticator/internal/engine"
	"prognosticator/internal/locktable"
	"prognosticator/internal/profile"
)

// Op is one committed transaction in the recorded history.
type Op struct {
	// ID identifies the op for error reporting: "<batchID>/<seq>".
	ID string
	// Index is the raft apply index of the containing batch: the coarse
	// commit order.
	Index uint64
	// Seq is the transaction's position in the agreed total order.
	Seq uint64
	// Name is the transaction name (diagnostics only).
	Name string
	// Class is the paper's taxonomy (ROT/IT/DT); it determines the
	// transaction's serialization point within the batch.
	Class profile.Class
	// Round is the batch-internal commit round: 0 for transactions that
	// committed on first execution, r for transactions re-executed after r
	// aborted attempts. Equal to TxOutcome.Aborts.
	Round int
	// Reads and Writes are the recorded footprints (engine.Access values:
	// key plus value fingerprint; empty fingerprint = absent/deleted).
	Reads  []engine.Access
	Writes []engine.Access
}

// rank orders ops within one batch. ROTs run against the beginning-of-batch
// snapshot, so they serialize first. Round-0 updates are enqueued into the
// lock table DTs-before-ITs and conflicting transactions are granted in
// enqueue order, so the round-0 serial order is DTs (by seq) then ITs (by
// seq). Each retry round re-enqueues its transactions in seq order and runs
// after all earlier rounds' commits.
func (o Op) rank() int {
	switch {
	case o.Class == profile.ClassROT:
		return 0
	case o.Round == 0 && o.Class == profile.ClassDT:
		return 1
	default:
		return 2 + o.Round
	}
}

// sortEffective returns the ops in the engine's effective serial order:
// (apply index, batch-internal rank, seq).
func sortEffective(ops []Op) []Op {
	out := append([]Op(nil), ops...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if ar, br := a.rank(), b.rank(); ar != br {
			return ar < br
		}
		return a.Seq < b.Seq
	})
	return out
}

// Recorder accumulates ops from replica apply callbacks. Safe for
// concurrent use; its Observe method matches replica.ClusterConfig.OnApply.
type Recorder struct {
	mu     sync.Mutex
	seen   map[string]bool
	ops    []Op
	traces map[uint64][]locktable.Record
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{seen: map[string]bool{}, traces: map[uint64][]locktable.Record{}}
}

// Observe records one applied batch. Every replica reports every batch it
// applies; only the first report of a batch name is kept. Pending outcomes
// (carry-over transactions that did not commit in this batch) are skipped.
func (r *Recorder) Observe(replicaID string, index uint64, batchID string, reqs []engine.Request, res *engine.BatchResult) {
	_ = replicaID
	_ = reqs
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[batchID] {
		return
	}
	r.seen[batchID] = true
	if len(res.LockTrace) > 0 {
		// Engines running with Config.TraceLocks report the batch's lock
		// grant/release records; kept per apply index for CheckTraced. Any
		// replica's report will do: per-key GRANT order is deterministic
		// (FIFO), and the checker ignores the timing-dependent releases.
		r.traces[index] = res.LockTrace
	}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Pending {
			continue
		}
		r.ops = append(r.ops, Op{
			ID:     fmt.Sprintf("%s/%d", batchID, o.Seq),
			Index:  index,
			Seq:    o.Seq,
			Name:   o.TxName,
			Class:  o.Class,
			Round:  o.Aborts,
			Reads:  o.ReadSet,
			Writes: o.WriteSet,
		})
	}
}

// Len returns the number of recorded ops.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Ops returns a copy of the recorded ops in observation order.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.ops...)
}

// Check verifies the recorded history; see the package-level Check.
func (r *Recorder) Check(initial map[string]string) error {
	return Check(r.Ops(), initial)
}

// Traces returns a copy of the recorded per-batch lock traces.
func (r *Recorder) Traces() map[uint64][]locktable.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64][]locktable.Record, len(r.traces))
	for k, v := range r.traces {
		out[k] = v
	}
	return out
}

// CheckTraced verifies the recorded history against the recorded lock
// traces; see the package-level CheckTraced.
func (r *Recorder) CheckTraced(initial map[string]string) error {
	return CheckTraced(r.Ops(), r.Traces(), initial)
}
