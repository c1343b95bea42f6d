package replica

import (
	"errors"
	"fmt"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/flowctl"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/value"
)

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
// majority with ClusterConfig.QuorumSubmit. The batch is the next Seq of the
// cluster's session, so when its outcome turns ambiguous — the leader
// crashed or was deposed after Propose, mid-replication — the SAME batch is
// safely re-proposed through the new leader: replicas execute the first
// committed occurrence and skip duplicates. Each proposal carries the lowest
// Seq still being submitted, which lets replicas forget every batch below
// it. Exactly-once application, at-least-once submission. A call that fails
// after a proposal (its deadline or retry budget ran out) leaves the outcome
// ambiguous: the batch may still apply, once at most.
//
// The ClusterConfig.Flow policy gates the whole call: admission (inflight
// limit, rate bucket, circuit breaker) may shed it with an error wrapping
// flowctl.ErrOverload — shed batches were certainly never proposed or
// applied — and each re-proposal spends the retry budget. A call admitted as
// the breaker's half-open probe that returns before any route outcome (no
// leader within the deadline, say) counts as a failed probe when it releases
// its admission, so the breaker re-opens instead of waiting on it. The wait
// for the apply is woken by the replicas' apply loops; waiting for a leader
// and re-routing run on seeded jittered backoff. All of it runs under the
// caller's deadline: leader routing, the proposal and the apply wait share
// one budget, and none waits past it.
func (c *Cluster) SubmitBatch(reqs []Request, within time.Duration) error {
	dl := flowctl.AfterClock(c.clk, within)
	release, err := c.flow.Admit()
	if err != nil {
		return fmt.Errorf("replica: submit: %w", err)
	}
	defer release()
	b := sequencer.Batch{ID: c.session, Requests: make([]engine.Request, len(reqs))}
	for i, r := range reqs {
		b.Requests[i] = engine.Request{TxName: r.TxName, Inputs: r.Inputs}
	}
	c.mu.Lock()
	c.batchSeq++
	b.Seq = c.batchSeq
	c.running[b.Seq] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.running, b.Seq)
		c.mu.Unlock()
	}()
	var bo *flowctl.Backoff // built at the first re-route that has to wait
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := c.flow.AllowRetry(); err != nil {
				return fmt.Errorf("replica: batch %d: %w", b.Seq, err)
			}
		}
		li, err := c.waitLeader(dl)
		if err != nil {
			return err
		}
		b.Low = c.lowestRunning()
		idx, err := sequencer.Propose(c.node(li), b)
		if err != nil {
			if !errors.Is(err, sequencer.ErrNotLeader) {
				return err
			}
			// Leadership moved between waitLeader and the proposal: nothing
			// was proposed on this node; back off and re-route.
			c.flow.RecordRouteFailure()
			if bo == nil {
				bo = c.flow.NewBackoff()
			}
			if serr := bo.Sleep(dl); serr != nil {
				return fmt.Errorf("replica: batch %d: no stable leader: %w", b.Seq, serr)
			}
			continue
		}
		c.flow.RecordRouteSuccess()
		// The apply loops announce every record they deal with: arm first,
		// then check, so an apply between the two still ends the wait.
		wdl := dl.Bound(c.cfg.SubmitWindow)
		for {
			woken := c.progress.Arm()
			if err := c.waitErr(); err != nil {
				return err
			}
			if c.appliedBatch(b.Seq) {
				c.flow.RecordSuccess()
				return nil
			}
			rem := wdl.Remaining()
			if rem <= 0 {
				break // attempt window over: re-route, or fail at the deadline
			}
			c.progress.Wait(woken, rem)
		}
		if dl.Expired() {
			return fmt.Errorf("replica: batch %d (index %d) not applied: %w",
				b.Seq, idx, flowctl.ErrDeadlineExceeded)
		}
		// Ambiguous: the proposal may or may not have committed. Re-propose
		// the same Seq through whoever leads now; apply-time dedup makes the
		// retry idempotent.
	}
}

// lowestRunning returns the lowest Seq of the submits still running: every
// batch below it has been acknowledged or given up on.
func (c *Cluster) lowestRunning() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	low := c.batchSeq
	for seq := range c.running {
		low = min(low, seq)
	}
	return low
}

// appliedBatch reports whether enough replicas have applied batch seq of the
// cluster's session: all live replicas, or a majority of the membership with
// QuorumSubmit. The check is by Seq, not by raft index — a deposed leader's
// proposal can be overwritten, letting the apply index sail past the
// proposal's slot without the batch ever committing.
func (c *Cluster) appliedBatch(seq uint64) bool {
	applied, live := 0, 0
	for i := range c.ids {
		if c.IsDown(i) {
			continue
		}
		live++
		if c.replica(i).appliedSeq(c.session, seq) {
			applied++
		}
	}
	if c.cfg.QuorumSubmit {
		return applied >= len(c.ids)/2+1
	}
	return live > 0 && applied == live
}
