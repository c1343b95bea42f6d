// Package baselines implements the systems Prognosticator is evaluated
// against in §IV-B of the paper: Calvin (client-side reconnaissance, strict
// in-order lock acquisition, client re-submission of failed dependent
// transactions), NODO (table-granularity conflict classes, no aborts) and
// SEQ (single-threaded in-order execution). All three share the same lock
// table, store and SE-derived transaction profiles as the Prognosticator
// engine, so measured differences isolate the scheduling design — exactly
// the methodology the paper uses.
package baselines

import (
	"fmt"
	"sort"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/store"
)

// Calvin models the paper's Calvin-N baselines. Dependent transactions are
// prepared by the client N milliseconds before delivery; with a 10 ms batch
// interval that is Staleness = N/10 batch epochs. A transaction whose
// execution strays outside the key-set predicted by that stale
// reconnaissance aborts and is re-submitted by the client in the next batch.
type Calvin struct {
	reg  *engine.Registry
	st   *store.Store
	pool engine.Pool
	// staleness in batch epochs between reconnaissance and delivery.
	staleness uint64
	carry     []*engine.Task
	label     string
}

var _ engine.Executor = (*Calvin)(nil)

// NewCalvin returns a Calvin executor on pool (not shared with another
// executor) with the given reconnaissance staleness in batch epochs (the
// paper's Calvin-100/Calvin-200 use N ms / 10 ms batches = 10 and 20
// epochs).
func NewCalvin(reg *engine.Registry, st *store.Store, pool engine.Pool, stalenessEpochs uint64, label string) *Calvin {
	return &Calvin{reg: reg, st: st, pool: pool, staleness: stalenessEpochs, label: label}
}

// Name implements engine.Executor.
func (c *Calvin) Name() string { return c.label }

// Pending returns the number of carried-over transactions awaiting
// re-submission.
func (c *Calvin) Pending() int { return len(c.carry) }

// ExecuteBatch implements engine.Executor.
func (c *Calvin) ExecuteBatch(batch []engine.Request) (*engine.BatchResult, error) {
	// Carried-over transactions re-enter ahead of the new batch (they are
	// older in the total order).
	b, err := engine.BeginBatch(c.pool, c.reg, c.st, c.carry, batch)
	if err != nil {
		return nil, err
	}
	c.carry = nil
	writer := b.Writer

	// Reconnaissance snapshot: N epochs older than the fresh snapshot a
	// Prognosticator replica would use.
	prepEpoch := uint64(0)
	if epoch := b.Res.Epoch; epoch-1 > c.staleness {
		prepEpoch = epoch - 1 - c.staleness
	}
	snap := c.st.ViewAt(prepEpoch)

	// Client-side preparation against the stale snapshot (the paper's
	// Calvin still benefits from the SE profiles: only pivots are read). A
	// dedicated client thread did this N ms ago, off the replica's critical
	// path, so it is not pool work — only the stale snapshot matters.
	for _, tx := range b.Tasks {
		ks, err := tx.Prof.InstantiateArgs(tx.Args, snap, nil)
		if err != nil {
			return nil, fmt.Errorf("calvin: instantiate %s(seq %d): %w", tx.Req.TxName, tx.Req.Seq, err)
		}
		tx.KS = ks
		tx.Entry = &locktable.Entry{Seq: tx.Req.Seq, Keys: locktable.BuildKeys(ks.Reads, ks.Writes)}
	}

	// Strict in-order lock acquisition by the single scheduler thread — no
	// DT-first reordering, and read-only transactions take (exclusive)
	// locks like everything else, Calvin's single-scheduler design. Under
	// those locks OLLP validation applies: any access outside the
	// reconnaissance key-set aborts the transaction.
	sort.Slice(b.Tasks, func(i, j int) bool { return b.Tasks[i].Req.Seq < b.Tasks[j].Req.Seq })
	failed, _, err := c.pool.Round(b.Tasks, nil, func(tx *engine.Task) (engine.Work, error) {
		ov := engine.NewOverlay(writer)
		ov.Guard(tx.KS.Reads, tx.KS.Writes)
		resu, err := new(lang.Frame).Run(tx.Prog, tx.Args, ov)
		if err != nil {
			return engine.Work{}, fmt.Errorf("calvin: execute %s(seq %d): %w", tx.Req.TxName, tx.Req.Seq, err)
		}
		work := engine.Work{Reads: len(resu.Reads), Writes: len(resu.Writes), Abort: ov.Violated()}
		if !work.Abort {
			ov.Flush(writer)
		}
		return work, nil
	}, false, 0)
	if err != nil {
		return nil, err
	}

	// Aborted transactions go back to the client, which re-runs
	// reconnaissance and re-submits them in a future batch.
	for _, tx := range failed {
		tx.Out.Pending = true
	}
	c.carry = failed
	// The stale snapshot must stay readable.
	return b.End(c.staleness + 1), nil
}
