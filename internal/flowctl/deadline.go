package flowctl

import (
	"time"

	"prognosticator/internal/vclock"
)

// Deadline is an absolute time budget threaded through the submit path: from
// SubmitBatch through leader routing, proposal flushes and apply-wait loops,
// so no layer waits past the caller's budget. A Deadline carries the clock
// it was minted from, so budgets created on a simulated clock expire in
// virtual time. Every Deadline comes from AfterClock (or Bound on one).
type Deadline struct {
	at  time.Time
	clk vclock.Clock
}

// AfterClock returns a deadline d from clk's now (nil = wall clock),
// expiring by clk's time.
func AfterClock(clk vclock.Clock, d time.Duration) Deadline {
	clk = vclock.Or(clk)
	return Deadline{at: clk.Now().Add(d), clk: clk}
}

// Expired reports whether the deadline has passed.
func (d Deadline) Expired() bool { return !d.clk.Now().Before(d.at) }

// Remaining returns the budget left; an expired deadline reports <= 0.
func (d Deadline) Remaining() time.Duration { return d.at.Sub(d.clk.Now()) }

// Bound returns the earlier of this deadline and now+window — the per-attempt
// sub-budget pattern: a proposal is waited on for at most window before
// re-routing, but never past the caller's overall deadline. The derived
// deadline keeps this deadline's clock.
func (d Deadline) Bound(window time.Duration) Deadline {
	if w := d.clk.Now().Add(window); w.Before(d.at) {
		return Deadline{at: w, clk: d.clk}
	}
	return d
}
