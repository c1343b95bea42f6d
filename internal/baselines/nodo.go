package baselines

import (
	"fmt"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/store"
)

// NODO schedules transactions by the tables they access (§V, [26]): the
// conflict classes are coarse (table-level), so no transaction ever aborts —
// every transaction is an IT — but transactions touching different keys of
// the same table serialize needlessly, capping parallelism.
type NODO struct {
	reg  *engine.Registry
	st   *store.Store
	pool engine.Pool
}

var _ engine.Executor = (*NODO)(nil)

// NewNODO returns a NODO executor on pool (not shared with another executor).
func NewNODO(reg *engine.Registry, st *store.Store, pool engine.Pool) *NODO {
	return &NODO{reg: reg, st: st, pool: pool}
}

// Name implements engine.Executor.
func (n *NODO) Name() string { return "NODO" }

// ExecuteBatch implements engine.Executor.
func (n *NODO) ExecuteBatch(batch []engine.Request) (*engine.BatchResult, error) {
	b, err := engine.BeginBatch(n.pool, n.reg, n.st, nil, batch)
	if err != nil {
		return nil, err
	}
	writer := b.Writer
	for _, tx := range b.Tasks {
		// Conflict class = set of tables; lock keys are table names with
		// read/write modes from the static analysis.
		tx.Entry = &locktable.Entry{Seq: tx.Req.Seq, Keys: n.reg.TableLocks[tx.Req.TxName]}
	}
	_, _, err = n.pool.Round(b.Tasks, nil, func(tx *engine.Task) (engine.Work, error) {
		ov := engine.NewOverlay(writer)
		resu, err := new(lang.Frame).Run(tx.Prog, tx.Args, ov)
		if err != nil {
			return engine.Work{}, fmt.Errorf("nodo: execute %s(seq %d): %w", tx.Req.TxName, tx.Req.Seq, err)
		}
		ov.Flush(writer)
		return engine.Work{Reads: len(resu.Reads), Writes: len(resu.Writes)}, nil
	}, false, 0)
	if err != nil {
		return nil, err
	}
	return b.End(1), nil
}

// SEQ executes every transaction of the batch sequentially on a single
// worker, in the agreed order — the trivially correct deterministic
// baseline (§IV-B).
type SEQ struct {
	reg  *engine.Registry
	st   *store.Store
	pool engine.Pool
}

var _ engine.Executor = (*SEQ)(nil)

// NewSEQ returns a sequential executor on the calling goroutine.
func NewSEQ(reg *engine.Registry, st *store.Store) *SEQ {
	return NewSEQWithPool(reg, st, engine.NewThreadPool(1))
}

// NewSEQWithPool returns a sequential executor on one worker of pool (not
// shared with another executor).
func NewSEQWithPool(reg *engine.Registry, st *store.Store, pool engine.Pool) *SEQ {
	return &SEQ{reg: reg, st: st, pool: pool}
}

// Name implements engine.Executor.
func (s *SEQ) Name() string { return "SEQ" }

// ExecuteBatch implements engine.Executor.
func (s *SEQ) ExecuteBatch(batch []engine.Request) (*engine.BatchResult, error) {
	b, err := engine.BeginBatch(s.pool, s.reg, s.st, nil, batch)
	if err != nil {
		return nil, err
	}
	writer := b.Writer
	err = s.pool.Serial(b.Tasks, func(tx *engine.Task) (engine.Work, error) {
		resu, err := new(lang.Frame).Run(tx.Prog, tx.Args, writer)
		if err != nil {
			return engine.Work{}, fmt.Errorf("seq: execute %s(seq %d): %w", tx.Req.TxName, tx.Req.Seq, err)
		}
		return engine.Work{Reads: len(resu.Reads), Writes: len(resu.Writes)}, nil
	})
	if err != nil {
		return nil, err
	}
	return b.End(1), nil
}
