// Package engine implements Prognosticator's deterministic multi-threaded
// transaction execution layer (§III-C of the paper): a single Queuer and N
// Workers cooperating through the lock table to execute an ordered batch of
// transactions with maximum parallelism while guaranteeing that every
// replica reaches the same state.
package engine

import (
	"fmt"
	"sort"
	"time"

	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/profile"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
)

// Request is one transaction invocation, already ordered by consensus.
type Request struct {
	// Seq is the position in the agreed total order (unique within a
	// batch; monotonically increasing across batches by convention).
	Seq    uint64
	TxName string
	Inputs map[string]value.Value
}

// PrepareMode selects how update-transaction key-sets are obtained.
type PrepareMode int

// Prepare modes: symbolic-execution profiles (the paper's contribution) vs
// reconnaissance (run the transaction logic against the snapshot, the
// OLLP-style "-R" variants of §IV-C).
const (
	PrepareSE PrepareMode = iota + 1
	PrepareRecon
)

// String returns the variant suffix used in the paper's figures.
func (m PrepareMode) String() string {
	if m == PrepareRecon {
		return "R"
	}
	return "SE"
}

// QueueMode selects who prepares indirect keys.
type QueueMode int

// Queue modes: MQ lets idle workers help the Queuer prepare; 1Q leaves all
// preparation to the single Queuer thread.
const (
	QueueMulti QueueMode = iota + 1
	QueueSingle
)

// String returns the variant prefix used in the paper's figures.
func (m QueueMode) String() string {
	if m == QueueSingle {
		return "1Q"
	}
	return "MQ"
}

// FailMode selects the failed-transaction strategy.
type FailMode int

// Fail modes: SF re-executes failed transactions sequentially on a single
// thread; MF re-prepares and re-enqueues them into the lock table.
const (
	FailSequential FailMode = iota + 1
	FailReenqueue
)

// String returns the variant suffix used in the paper's figures.
func (m FailMode) String() string {
	if m == FailReenqueue {
		return "MF"
	}
	return "SF"
}

// Config selects an engine variant. The paper's §IV-C grid is
// {MQ,1Q} x {SF,MF} x {SE,R}.
type Config struct {
	Workers int
	Prepare PrepareMode
	Queue   QueueMode
	Fail    FailMode
	// ExclusiveLocks disables shared read grants in the lock table — the
	// literal reading of the paper's Fig. 2, kept as an ablation: hot
	// catalog reads then serialize the workload (see the
	// BenchmarkAblationLockSharing results).
	ExclusiveLocks bool
	// RecordFootprints makes every committed execution record its observed
	// read footprint and final write footprint (key → value fingerprint)
	// into TxOutcome.ReadSet/WriteSet — the raw material for the
	// serializability history checker (internal/history). Off by default:
	// recording allocates per transaction.
	RecordFootprints bool
	// TraceLocks makes every execution round emit its lock grant/release
	// records into BatchResult.LockTrace. Combined with RecordFootprints,
	// the trace lets the serializability checker reconstruct the EFFECTIVE
	// serial order from what the lock table actually did, rather than
	// trusting the agreed order (see history.CheckTraced). Off by default.
	TraceLocks bool
}

// VariantName renders the configuration the way the paper labels it, e.g.
// "MQ-MF" or "1Q-SF-R".
func (c Config) VariantName() string {
	name := c.Queue.String() + "-" + c.Fail.String()
	if c.Prepare == PrepareRecon {
		name += "-R"
	}
	return name
}

func (c Config) withDefaults() Config {
	if c.Prepare == 0 {
		c.Prepare = PrepareSE
	}
	if c.Queue == 0 {
		c.Queue = QueueMulti
	}
	if c.Fail == 0 {
		c.Fail = FailReenqueue
	}
	return c
}

// TxOutcome reports the fate of one request.
type TxOutcome struct {
	Seq     uint64
	TxName  string
	Class   profile.Class
	Aborts  int           // failed execution attempts
	Prepare time.Duration // time spent preparing the key-set (all attempts)
	Exec    time.Duration // time spent executing successfully
	// Done is when the transaction finally committed, for latency
	// accounting (zero when the transaction is still pending, which only
	// Calvin's carry-over produces).
	Done time.Time
	// Pending marks a transaction that did not commit in this batch and
	// was carried over (Calvin's client-retry path).
	Pending bool
	// Emitted holds the transaction's Emit outputs (its result set).
	Emitted map[string]value.Value
	// DirectKeys counts the key-set entries instantiated client-side
	// without pivot reads (pivot-free DTs only; zero elsewhere).
	DirectKeys int
	// VDone is the transaction's completion offset in VIRTUAL time from
	// the batch start; set only by the virtual pool, which models an
	// N-core replica on whatever host runs it.
	VDone time.Duration
	// ReadSet and WriteSet are the committed execution's observed read
	// footprint (first read per key, before any own write) and final write
	// footprint, recorded only with Config.RecordFootprints. Values are
	// fingerprints (see Fingerprint); an empty Val is a not-found read or a
	// delete.
	ReadSet  []Access
	WriteSet []Access
}

// Access is one recorded key access: the encoded key and a fingerprint of
// the value observed (reads) or produced (writes). An empty Val marks a
// not-found read or a deleting write.
type Access struct {
	Key string
	Val string
}

// BatchResult is the outcome of executing one ordered batch.
type BatchResult struct {
	Epoch     uint64
	Outcomes  []TxOutcome
	Aborts    int
	Start     time.Time
	End       time.Time
	ROTs      int
	Updates   int
	FailRound int // number of re-execution rounds needed
	// VirtualMakespan is the batch's span in virtual time (virtual pool only).
	VirtualMakespan time.Duration
	// LockTrace is the batch's lock grant/release record stream across all
	// execution rounds, recorded only with Config.TraceLocks.
	LockTrace []locktable.Record
}

// Executor is the interface shared by the Prognosticator engine and the
// Calvin/NODO/SEQ baselines: execute ordered batches deterministically.
type Executor interface {
	// ExecuteBatch runs one batch to completion and returns per-request
	// outcomes. Implementations must be deterministic: the same sequence
	// of batches yields the same store state on every run.
	ExecuteBatch(batch []Request) (*BatchResult, error)
	// Name returns the system/variant label used in figures.
	Name() string
}

// Registry is the transaction catalog: validated programs plus their
// offline symbolic-execution profiles, shared by all executors (the paper
// gives NODO and Calvin the benefit of the same SE analysis, §IV-B).
//
// Programs, Profiles, Classes and PivotFree are read-only views for callers
// outside the engine: BeginBatch reads each transaction's entry in txns,
// which NewRegistry fills from the same values, so editing one of those
// maps does not change what the executors do.
type Registry struct {
	Schema   *lang.Schema
	Programs map[string]*lang.Program
	Profiles map[string]*profile.Profile
	// Classes caches each transaction's ROT/IT/DT classification
	// (classifying walks the whole profile tree, far too expensive to do
	// per request).
	Classes map[string]profile.Class
	// Tables caches, per transaction, the set of tables it may touch —
	// NODO's conflict classes. TableLocks is the same information as
	// ready-made table-granularity lock requests (write mode for tables
	// the transaction may write).
	Tables     map[string][]string
	TableLocks map[string][]locktable.LockKey
	// PivotFree marks DT profiles whose tree traversal never depends on a
	// pivot: preparation splits into an input-only direct part (predicted
	// client-side, no store reads) and a pivot-dependent remainder
	// (§III-C). ITs/ROTs are excluded — their whole key-set is direct
	// already and the split would be pure overhead.
	PivotFree map[string]bool

	// txns is the same catalog by transaction, for BeginBatch's one lookup
	// per request.
	txns map[string]*txn
}

// txn is one transaction's catalog entry.
type txn struct {
	prog      *lang.Program
	prof      *profile.Profile
	class     profile.Class
	pivotFree bool
	nargs     int // len(prog.ParamNames())
}

// NewRegistry validates and analyzes the given programs with the optimized
// symbolic execution (taint + pruning), building the shared catalog.
func NewRegistry(schema *lang.Schema, programs ...*lang.Program) (*Registry, error) {
	r := &Registry{
		Schema:     schema,
		Programs:   make(map[string]*lang.Program, len(programs)),
		Profiles:   make(map[string]*profile.Profile, len(programs)),
		Classes:    make(map[string]profile.Class, len(programs)),
		Tables:     make(map[string][]string, len(programs)),
		TableLocks: make(map[string][]locktable.LockKey, len(programs)),
		PivotFree:  make(map[string]bool, len(programs)),
		txns:       make(map[string]*txn, len(programs)),
	}
	for _, p := range programs {
		if err := schema.Validate(p); err != nil {
			return nil, fmt.Errorf("engine: registry: %w", err)
		}
		prof, err := symexec.Analyze(p)
		if err != nil {
			return nil, fmt.Errorf("engine: registry: analyze %s: %w", p.Name, err)
		}
		// The profile reads a request's args in the program's order.
		prof.Params = p.ParamNames()
		r.Programs[p.Name] = p
		r.Profiles[p.Name] = prof
		r.Classes[p.Name] = prof.Class()
		r.PivotFree[p.Name] = prof.Class() == profile.ClassDT && prof.PivotFreeTraversal()
		r.txns[p.Name] = &txn{prog: p, prof: prof, class: r.Classes[p.Name], pivotFree: r.PivotFree[p.Name], nargs: len(prof.Params)}
		tbls := profileTables(prof)
		names := make([]string, 0, len(tbls))
		for t := range tbls {
			names = append(names, t)
		}
		sort.Strings(names)
		r.Tables[p.Name] = names
		locks := make([]locktable.LockKey, 0, len(names))
		for _, t := range names {
			locks = append(locks, locktable.LockKey{Key: value.NewKey(t).Encode(), Write: tbls[t]})
		}
		r.TableLocks[p.Name] = locks
	}
	return r, nil
}

// Class returns the class of the named transaction.
func (r *Registry) Class(txName string) (profile.Class, error) {
	c, ok := r.Classes[txName]
	if !ok {
		return 0, fmt.Errorf("engine: unknown transaction %q", txName)
	}
	return c, nil
}

// profileTables collects the distinct tables touched anywhere in a profile,
// with true marking tables the transaction may write.
func profileTables(p *profile.Profile) map[string]bool {
	seen := map[string]bool{}
	var walk func(n *profile.Node)
	walk = func(n *profile.Node) {
		if n == nil {
			return
		}
		for _, a := range n.Seg {
			seen[a.Table] = seen[a.Table] || a.Write
		}
		walk(n.True)
		walk(n.False)
	}
	walk(p.Root)
	return seen
}
