package engine

import (
	"fmt"
	"time"

	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/profile"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// Engine is the Prognosticator executor. One goroutine (the caller of
// ExecuteBatch) plays the Queuer; the pool's workers execute transactions.
// Batches must be executed one at a time.
type Engine struct {
	reg    *Registry
	st     *store.Store
	cfg    Config
	pool   Pool
	frames frameList
}

var _ Executor = (*Engine)(nil)

// New returns an engine over the given catalog and store, running on
// Config.Workers goroutines.
func New(reg *Registry, st *store.Store, cfg Config) *Engine {
	return NewWithPool(reg, st, cfg, NewThreadPool(cfg.Workers))
}

// NewSim returns the same engine on Config.Workers virtual workers: results
// carry VDone / VirtualMakespan, and Prepare/Exec hold virtual durations.
func NewSim(reg *Registry, st *store.Store, cfg Config) *Engine {
	return NewWithPool(reg, st, cfg, NewVirtualPool(cfg.Workers))
}

// NewWithPool returns an engine on the given pool, which it must not share
// with another executor; Config.Workers is ignored in favour of the pool's.
func NewWithPool(reg *Registry, st *store.Store, cfg Config, pool Pool) *Engine {
	cfg = cfg.withDefaults()
	pool.table().EnableTrace(cfg.TraceLocks)
	return &Engine{reg: reg, st: st, cfg: cfg, pool: pool}
}

// Name implements Executor.
func (e *Engine) Name() string { return e.cfg.VariantName() }

// Store returns the underlying store (for state-hash checks).
func (e *Engine) Store() *store.Store { return e.st }

// Batch is the frame every executor's ExecuteBatch shares: a fresh epoch,
// one Task per request bound to its outcome slot, and the result under
// construction.
type Batch struct {
	Res    *BatchResult
	Tasks  []*Task
	Writer *store.WriteView
	pool   Pool
	st     *store.Store
}

// BeginBatch opens the next epoch and binds carry (tasks held over from an
// earlier batch, which re-enter first) and batch to fresh outcome slots.
func BeginBatch(pool Pool, reg *Registry, st *store.Store, carry []*Task, batch []Request) (*Batch, error) {
	start := time.Now()
	epoch := st.BeginEpoch()
	n := len(carry) + len(batch)
	res := &BatchResult{Epoch: epoch, Start: start, Outcomes: make([]TxOutcome, n)}
	tasks := append(make([]*Task, 0, n), carry...)
	fresh := make([]Task, len(batch))
	nargs := 0
	for i, req := range batch {
		t, ok := reg.txns[req.TxName]
		if !ok {
			return nil, fmt.Errorf("engine: unknown transaction %q", req.TxName)
		}
		fresh[i] = Task{Req: req, Prog: t.prog, Prof: t.prof, Class: t.class, pivotFree: t.pivotFree}
		nargs += t.nargs
	}
	// Every request's inputs, bound once into the batch's one args slab.
	slab := make([]value.Value, 0, nargs)
	for i := range fresh {
		tx := &fresh[i]
		from := len(slab)
		var err error
		if slab, err = tx.Prog.Bind(slab, tx.Req.Inputs); err != nil {
			return nil, fmt.Errorf("engine: %s(seq %d): %w", tx.Req.TxName, tx.Req.Seq, err)
		}
		tx.Args = slab[from:len(slab):len(slab)]
		tasks = append(tasks, tx)
	}
	for i, tx := range tasks {
		res.Outcomes[i] = TxOutcome{Seq: tx.Req.Seq, TxName: tx.Req.TxName, Class: tx.Class}
		tx.Out = &res.Outcomes[i]
		if tx.Class == profile.ClassROT {
			res.ROTs++
		} else {
			res.Updates++
		}
	}
	pool.begin()
	return &Batch{Res: res, Tasks: tasks, Writer: st.WriterAt(epoch), pool: pool, st: st}, nil
}

// gcEvery is the store-GC cadence in batches: version GC sweeps every key,
// so it is amortized.
const gcEvery = 16

// End closes the batch: it sums the aborts, garbage-collects versions more
// than retain epochs behind this one every gcEvery batches, and stamps the
// makespan.
func (b *Batch) End(retain uint64) *BatchResult {
	res := b.Res
	if res.Epoch%gcEvery == 0 && res.Epoch > retain {
		b.st.GC(res.Epoch - retain)
	}
	for i := range res.Outcomes {
		res.Aborts += res.Outcomes[i].Aborts
	}
	res.VirtualMakespan = b.pool.end()
	res.End = time.Now()
	return res
}

// ExecuteBatch implements Executor. Phases (§III-C):
//
//  1. Workers drain their round-robin ROT queues against the
//     previous-batch snapshot while, concurrently, indirect keys are
//     prepared (by Queuer + Workers in MQ mode, Queuer alone in 1Q mode).
//  2. The Queuer enqueues update transactions into the lock table — DTs
//     ahead of ITs — seeding the ready queue.
//  3. The Queuer pops the ready queue onto the workers and releases what
//     they finish: DTs validate their pivot observations first and abort
//     into the failed list on any change; executions are buffered and
//     flushed before lock release.
//  4. Failed transactions are re-executed sequentially (SF) or re-prepared
//     and re-enqueued in rounds (MF).
func (e *Engine) ExecuteBatch(batch []Request) (*BatchResult, error) {
	b, err := BeginBatch(e.pool, e.reg, e.st, nil, batch)
	if err != nil {
		return nil, err
	}
	res, writer := b.Res, b.Writer
	snap := e.st.ViewAt(res.Epoch - 1)

	workers := e.pool.Workers()
	rotQueues := make([][]*Task, workers)
	var dts, its []*Task
	rotIdx := 0
	for _, tx := range b.Tasks {
		switch tx.Class {
		case profile.ClassROT:
			// Round-robin distribution into per-worker local queues keeps
			// ROT execution coordination-free (§III-C).
			rotQueues[rotIdx%workers] = append(rotQueues[rotIdx%workers], tx)
			rotIdx++
		case profile.ClassDT:
			dts = append(dts, tx)
		default:
			its = append(its, tx)
		}
	}
	// DTs ahead of ITs so they execute earlier, shrinking the window in
	// which their pivot predictions can go stale.
	updates := make([]*Task, 0, len(dts)+len(its))
	updates = append(updates, dts...)
	updates = append(updates, its...)

	helpers := e.cfg.Queue == QueueMulti
	execROT := func(tx *Task) (Work, error) { return e.execROT(tx, snap) }
	prepare := func(tx *Task) (Work, error) { return e.prepare(tx, snap, snap) }
	// MF rounds re-prepare against the current (partially executed) state.
	reprepare := func(tx *Task) (Work, error) { return e.prepare(tx, writer, writer) }
	execUpdate := func(tx *Task) (Work, error) { return e.execUpdate(tx, writer) }
	execDirect := func(tx *Task) (Work, error) { return e.execDirect(tx, writer) }

	// Phase 1: ROT execution overlapped with key-set preparation.
	if err := e.pool.Lanes(rotQueues, execROT, updates, prepare, helpers); err != nil {
		return nil, err
	}

	// Phases 2+3: enqueue and execute.
	failed, trace, err := e.pool.Round(updates, nil, execUpdate, false, 0)
	if err != nil {
		return nil, err
	}
	res.LockTrace = trace

	// Phase 4: failed transactions, in agreed order. MF re-prepares and
	// re-enqueues them round by round for as long as rounds make progress:
	// a round that commits nothing means the profile mispredicts
	// persistently (e.g. read-own-write aliasing outside the profile's
	// model). SF, and MF once stuck, re-execute them sequentially and
	// unguarded, which is always correct and deterministic, takes no locks
	// and leaves no trace.
	reenqueue := e.cfg.Fail == FailReenqueue
	for round := 1; len(failed) > 0; round++ {
		res.FailRound = round
		if reenqueue {
			prev := len(failed)
			failed, trace, err = e.pool.Round(failed, reprepare, execUpdate, helpers, round)
			if err != nil {
				return nil, err
			}
			res.LockTrace = append(res.LockTrace, trace...)
			if len(failed) < prev && round <= maxFailRounds {
				continue
			}
		}
		if err := e.pool.Serial(failed, execDirect); err != nil {
			return nil, err
		}
		break
	}
	return b.End(0), nil
}

// maxFailRounds bounds MF convergence; each round commits at least the
// first failed transaction of every conflict chain, so hitting this limit
// indicates a bug rather than contention.
const maxFailRounds = 1000

// execROT runs a read-only transaction against the snapshot; no locks, no
// writes, results discarded (a real deployment would return them to the
// client).
func (e *Engine) execROT(tx *Task, snap *store.ReadView) (Work, error) {
	f := e.frames.get()
	defer e.frames.put(f)
	var kv lang.KV = snap
	var ov *Overlay
	if e.cfg.RecordFootprints {
		ov = f.overlay(snap)
		ov.Record()
		kv = ov
	}
	resu, err := f.run.Run(tx.Prog, tx.Args, kv)
	if err != nil {
		return Work{}, fmt.Errorf("engine: ROT %s(seq %d): %w", tx.Req.TxName, tx.Req.Seq, err)
	}
	if ov != nil {
		tx.Out.ReadSet, _ = ov.Footprints()
	}
	tx.Out.Emitted = resu.Emitted
	return Work{Reads: len(resu.Reads)}, nil
}

// prepare computes the key-set of an update transaction using kv for
// reconnaissance reads and pr for pivot reads — the beginning-of-batch
// snapshot, or the current batch state in MF rounds — then builds the
// lock-table entry.
func (e *Engine) prepare(tx *Task, kv lang.KV, pr profile.PivotReader) (Work, error) {
	var work Work
	switch e.cfg.Prepare {
	case PrepareRecon:
		// OLLP-style reconnaissance: run the full transaction logic on the
		// snapshot, buffering (and discarding) its writes, to discover the
		// key-set. This is the structural cost of the -R variants: a full
		// execution per preparation, vs only pivot reads for SE profiles.
		f := e.frames.get()
		defer e.frames.put(f)
		resu, err := f.run.Run(tx.Prog, tx.Args, f.overlay(kv))
		if err != nil {
			return Work{}, fmt.Errorf("engine: reconnaissance %s(seq %d): %w", tx.Req.TxName, tx.Req.Seq, err)
		}
		// The discovered keys outlive the frame they were built in.
		tx.KS = &profile.KeySet{Reads: value.CloneKeys(resu.Reads), Writes: value.CloneKeys(resu.Writes)}
		work = Work{Reads: len(resu.Reads), Writes: len(resu.Writes)}
	default:
		// An MF re-preparation hands the instantiation the key-set it
		// replaces, whose arrays take the new one when they fit.
		var err error
		if tx.pivotFree {
			// §III-C client-side prediction: the traversal is proven
			// pivot-free, so the direct part of the key-set is instantiated
			// from the inputs alone — once: a re-preparation keeps it in
			// place — and only pivot-dependent accesses touch the store.
			tx.KS, err = tx.Prof.InstantiateSplitArgs(tx.Args, pr, tx.KS)
			if err == nil {
				tx.Out.DirectKeys = tx.KS.DirectReads + tx.KS.DirectWrites
			}
		} else {
			tx.KS, err = tx.Prof.InstantiateArgs(tx.Args, pr, tx.KS)
		}
		if err != nil {
			return Work{}, fmt.Errorf("engine: instantiate %s(seq %d): %w", tx.Req.TxName, tx.Req.Seq, err)
		}
		work = Work{Reads: len(tx.KS.Pivots), Traversal: true}
	}
	// The lock requests double as the execution guard: reads ∪ writes,
	// deduplicated, with the write bit. A re-preparation builds them in the
	// arrays of the last round's, which the lock table has let go of: every
	// entry of a round is released, and a released entry is dropped.
	tx.guard = locktable.AppendKeys(tx.guard[:0], tx.KS.Reads, tx.KS.Writes)
	lockKeys := tx.guard
	if e.cfg.ExclusiveLocks {
		lockKeys = make([]locktable.LockKey, len(tx.guard))
		for i, lk := range tx.guard {
			lockKeys[i] = locktable.LockKey{Key: lk.Key, Write: true}
		}
	}
	if tx.Entry == nil {
		tx.Entry = new(locktable.Entry)
	}
	*tx.Entry = locktable.Entry{Seq: tx.Req.Seq, Keys: lockKeys}
	return work, nil
}

// execUpdate validates and executes one update transaction while it holds
// all its locks. It reports Abort when the transaction must abort (stale
// pivot observation or key-set guard violation).
func (e *Engine) execUpdate(tx *Task, writer *store.WriteView) (Work, error) {
	// Pivot validation (§III-C): the keys this DT locked were derived from
	// pivot values read at prepare time; if any pivot changed since, the
	// derived key-set may be wrong and the transaction must abort.
	if e.cfg.Prepare == PrepareSE {
		for _, obs := range tx.KS.Pivots {
			cur, found := writer.ReadPivot(obs.Key, obs.Field)
			if !found {
				cur = value.Int(0)
			}
			if !cur.Equal(obs.Value) {
				// Aborted during validation: only the pivot re-reads were
				// performed.
				return Work{Reads: len(tx.KS.Pivots), Abort: true}, nil
			}
		}
	}
	f := e.frames.get()
	defer e.frames.put(f)
	ov := f.overlay(writer)
	ov.guardLocks(tx.guard)
	resu, err := e.run(f, ov, tx, "execute")
	if err != nil {
		return Work{}, err
	}
	work := Work{Reads: len(tx.KS.Pivots) + len(resu.Reads), Writes: len(resu.Writes), Abort: ov.Violated()}
	if work.Abort {
		return work, nil
	}
	e.commit(ov, tx, resu, writer)
	return work, nil
}

// execDirect runs a transaction with exclusive access (SF re-execution): no
// guard, no validation — sequential execution cannot conflict.
func (e *Engine) execDirect(tx *Task, writer *store.WriteView) (Work, error) {
	f := e.frames.get()
	defer e.frames.put(f)
	ov := f.overlay(writer)
	resu, err := e.run(f, ov, tx, "sequential re-exec")
	if err != nil {
		return Work{}, err
	}
	e.commit(ov, tx, resu, writer)
	return Work{Reads: len(resu.Reads), Writes: len(resu.Writes)}, nil
}

// run executes tx's program on the frame against its overlay. The result
// belongs to the frame.
func (e *Engine) run(f *frame, ov *Overlay, tx *Task, what string) (*lang.Result, error) {
	if e.cfg.RecordFootprints {
		ov.Record()
	}
	resu, err := f.run.Run(tx.Prog, tx.Args, ov)
	if err != nil {
		return nil, fmt.Errorf("engine: %s %s(seq %d): %w", what, tx.Req.TxName, tx.Req.Seq, err)
	}
	return resu, nil
}

// commit publishes a violation-free execution: the buffered writes go to
// the store and what the outcome keeps is taken out of the frame.
func (e *Engine) commit(ov *Overlay, tx *Task, resu *lang.Result, writer *store.WriteView) {
	ov.Flush(writer)
	if e.cfg.RecordFootprints {
		tx.Out.ReadSet, tx.Out.WriteSet = ov.Footprints()
	}
	tx.Out.Emitted = resu.Emitted
}
