package main

import (
	"fmt"
	"sync"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/replica"
	"prognosticator/internal/store"
	"prognosticator/internal/wal"
)

// system is what a workload's batches are handed to: submit returns once all
// of the batch's outcomes are committed.
type system interface {
	submit(batch []engine.Request) error
	// stateHash quiesces the system and returns its state hash.
	stateHash() (uint64, error)
	close()
}

// engineSystem is a single executor over a private store, called the way the
// replica apply loop calls it.
type engineSystem struct {
	exec engine.Executor
	st   *store.Store
	seq  uint64
}

func (s *engineSystem) submit(batch []engine.Request) error {
	for i := range batch {
		s.seq++
		batch[i].Seq = s.seq
	}
	res, err := s.exec.ExecuteBatch(batch)
	if err != nil {
		return err
	}
	for i := range res.Outcomes {
		if res.Outcomes[i].Pending {
			return fmt.Errorf("%s: transaction seq %d left pending", s.exec.Name(), res.Outcomes[i].Seq)
		}
	}
	return nil
}

func (s *engineSystem) stateHash() (uint64, error) { return s.st.StateHash(s.st.Epoch()), nil }
func (s *engineSystem) close()                     {}

// clusterSystem is the whole transaction life: codec, admission, raft over
// memnet with zero injected delay, WAL with fsync on every append, engine,
// apply acknowledgement on a quorum. Snapshots are off: with SnapshotEvery 200
// all three replicas capture and fsync the store on the apply path at the same
// index, the submit at that index waits 0.6 to 2 s, leaders change, and after
// some 1400 batches a SubmitBatch fails with "no stable leader" — and the
// benchmark runs no workload on which operations fail (README, first
// observations). The snapshot writer is timed alone, as a rung of the ladder.
type clusterSystem struct {
	cl *replica.Cluster
}

// submitTimeout is far above any latency seen; a submit that reaches it is a
// failed operation.
const submitTimeout = 30 * time.Second

func newCluster(reg *engine.Registry, w workload, o options, dataDir string, wrap func(int, engine.Executor) engine.Executor) (*clusterSystem, error) {
	var mu sync.Mutex
	started := 0
	cl, err := replica.NewCluster(replica.ClusterConfig{
		Replicas: 3, Seed: o.seed, DataDir: dataDir, WALSync: wal.SyncAlways, QuorumSubmit: true,
		NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
			w.populate(st)
			var exec engine.Executor = engine.New(reg, st, engine.Config{Workers: o.workers})
			if wrap != nil {
				mu.Lock()
				exec = wrap(started, exec)
				started++
				mu.Unlock()
			}
			return exec, nil
		},
	})
	if err != nil {
		return nil, err
	}
	if _, err := cl.WaitLeader(submitTimeout); err != nil {
		cl.Stop()
		return nil, err
	}
	return &clusterSystem{cl: cl}, nil
}

func (s *clusterSystem) submit(batch []engine.Request) error {
	reqs := make([]replica.Request, len(batch))
	for i, r := range batch {
		reqs[i] = replica.Request{TxName: r.TxName, Inputs: r.Inputs}
	}
	return s.cl.SubmitBatch(reqs, submitTimeout)
}

func (s *clusterSystem) stateHash() (uint64, error) {
	if err := s.cl.WaitCaughtUp(submitTimeout); err != nil {
		return 0, err
	}
	if err := s.cl.Err(); err != nil {
		return 0, err
	}
	hs := s.cl.StateHashes()
	if !s.cl.Converged() {
		return 0, fmt.Errorf("replicas diverged: %x", hs)
	}
	return hs[0], nil
}

func (s *clusterSystem) close() { s.cl.Stop() }

// leaderTerm returns the current leader's term.
func (s *clusterSystem) leaderTerm() (uint64, error) {
	li, err := s.cl.WaitLeader(submitTimeout)
	if err != nil {
		return 0, err
	}
	_, term := s.cl.NodeAt(li).Status()
	return term, nil
}

// execStats is what a timedExec saw: the engine layer measured from outside,
// through the public fields of every BatchResult.
type execStats struct {
	wallMs                []float64 // one per ExecuteBatch call
	wall, prepare, exec   time.Duration
	tx, rots, updates     int
	aborts, failRounds    int
	directKeys, pivotFree int
	grants                int
	keyEvents             []float64 // Record.Pos of every lock-trace record
}

func (a *execStats) add(b *execStats) {
	a.wallMs = append(a.wallMs, b.wallMs...)
	a.wall += b.wall
	a.prepare += b.prepare
	a.exec += b.exec
	a.tx += b.tx
	a.rots += b.rots
	a.updates += b.updates
	a.aborts += b.aborts
	a.failRounds += b.failRounds
	a.directKeys += b.directKeys
	a.pivotFree += b.pivotFree
	a.grants += b.grants
	a.keyEvents = append(a.keyEvents, b.keyEvents...)
}

// timedExec wraps an executor with a span around every call and sums the
// result fields. Each replica has its own, so the mutex is uncontended; it
// orders the apply loop's writes with the reader at the end of the run.
type timedExec struct {
	inner engine.Executor
	tr    *tracer
	name  string
	// observe, when set, is handed every batch and result outside the span.
	observe func(batch []engine.Request, res *engine.BatchResult)
	mu      sync.Mutex
	calls   int
	stats   execStats
}

func (t *timedExec) Name() string { return t.inner.Name() }

func (t *timedExec) ExecuteBatch(batch []engine.Request) (*engine.BatchResult, error) {
	t.mu.Lock()
	t.calls++
	call := t.calls
	t.mu.Unlock()
	sp := t.tr.start(t.name, 0, call)
	res, err := t.inner.ExecuteBatch(batch)
	d := sp.end()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.stats
	s.wallMs = append(s.wallMs, ms(d))
	s.wall += d
	s.tx += len(res.Outcomes)
	s.rots += res.ROTs
	s.updates += res.Updates
	s.aborts += res.Aborts
	s.failRounds += res.FailRound
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		s.prepare += o.Prepare
		s.exec += o.Exec
		s.directKeys += o.DirectKeys
		if o.DirectKeys > 0 {
			s.pivotFree++
		}
	}
	for _, r := range res.LockTrace {
		if r.Grant {
			s.grants++
		}
		s.keyEvents = append(s.keyEvents, float64(r.Pos))
	}
	if t.observe != nil {
		t.observe(batch, res)
	}
	return res, nil
}

func (t *timedExec) snapshot() execStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out execStats
	out.add(&t.stats)
	return out
}
