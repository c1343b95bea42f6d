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
// applied — and each re-proposal spends the retry budget. The wait for the
// apply is woken by the replicas' apply loops; waiting for a leader and
// re-routing run on seeded jittered backoff. All of it runs under the
// caller's deadline: leader routing, the proposal and the apply wait share
// one budget, and none waits past it.
func (c *Cluster) SubmitBatch(reqs []Request, within time.Duration) error {
	dl := flowctl.AfterClock(c.clk, within)
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
	var bo *flowctl.Backoff // built at the first re-route that has to wait
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
		node := c.node(li)
		// The floor must be on record before the first proposal exists
		// anywhere: every occurrence of this ID will commit above it.
		c.registerFloor(id, node.CommitIndex())
		idx, err := sequencer.Propose(node, id, ereqs)
		if err != nil {
			if !errors.Is(err, sequencer.ErrNotLeader) {
				c.finishSubmit(id, proposed)
				return err
			}
			// Leadership moved between waitLeader and the proposal: nothing
			// was proposed on this node; back off and re-route.
			c.flow.RecordRouteFailure()
			if bo == nil {
				bo = c.flow.NewBackoff()
			}
			if serr := bo.Sleep(dl); serr != nil {
				c.finishSubmit(id, proposed)
				return fmt.Errorf("replica: batch %s: no stable leader: %w", id, serr)
			}
			continue
		}
		c.flow.RecordRouteSuccess()
		proposed = true
		c.noteProposed(id, idx)
		// The apply loops announce every record they deal with: arm first,
		// then check, so an apply between the two still ends the wait.
		wdl := dl.Bound(c.cfg.SubmitWindow)
		for {
			woken := c.progress.Arm()
			if err := c.waitErr(); err != nil {
				c.finishSubmit(id, proposed)
				return err
			}
			if c.appliedBatch(id) {
				c.flow.RecordSuccess()
				c.ackCommit(li, id)
				return nil
			}
			rem := wdl.Remaining()
			if rem <= 0 {
				break // attempt window over: re-route, or fail at the deadline
			}
			c.progress.Wait(woken, rem)
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
	commit := c.node(leader).CommitIndex()
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
