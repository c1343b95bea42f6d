package flowctl

import (
	"time"

	"prognosticator/internal/vclock"
)

// Deadline is an absolute time budget threaded through the submit path: from
// SubmitBatch through leader routing, proposal flushes and apply-wait loops,
// so no layer waits past the caller's budget. The zero Deadline means "no
// deadline" and never expires.
//
// A Deadline carries the clock it was minted from, so budgets created on a
// simulated clock expire in virtual time. The zero value (and After/At) read
// the wall clock, preserving pre-clock-injection behavior.
type Deadline struct {
	at  time.Time
	clk vclock.Clock
}

// After returns a deadline d from now on the wall clock.
func After(d time.Duration) Deadline { return AfterClock(vclock.Wall, d) }

// AfterClock returns a deadline d from clk's now, expiring by clk's time.
func AfterClock(clk vclock.Clock, d time.Duration) Deadline {
	clk = vclock.Or(clk)
	return Deadline{at: clk.Now().Add(d), clk: clk}
}

// At returns a deadline at the absolute wall time t.
func At(t time.Time) Deadline { return Deadline{at: t} }

// None returns the zero deadline (never expires).
func None() Deadline { return Deadline{} }

// IsZero reports whether this is the no-deadline sentinel.
func (d Deadline) IsZero() bool { return d.at.IsZero() }

// Time returns the absolute deadline (zero time for None).
func (d Deadline) Time() time.Time { return d.at }

// Clock returns the clock this deadline expires by (Wall if unset).
func (d Deadline) Clock() vclock.Clock { return vclock.Or(d.clk) }

// Expired reports whether the deadline has passed.
func (d Deadline) Expired() bool {
	return !d.at.IsZero() && !d.Clock().Now().Before(d.at)
}

// Remaining returns the budget left. A zero deadline reports a very large
// remainder; an expired deadline reports <= 0.
func (d Deadline) Remaining() time.Duration {
	if d.at.IsZero() {
		return time.Duration(1<<63 - 1)
	}
	return d.at.Sub(d.Clock().Now())
}

// Check returns ErrDeadlineExceeded if the deadline has passed, else nil.
func (d Deadline) Check() error {
	if d.Expired() {
		return ErrDeadlineExceeded
	}
	return nil
}

// Bound returns the earlier of this deadline and now+window — the per-attempt
// sub-budget pattern: a proposal is waited on for at most window before
// re-routing, but never past the caller's overall deadline. The derived
// deadline keeps this deadline's clock.
func (d Deadline) Bound(window time.Duration) Deadline {
	clk := d.Clock()
	w := clk.Now().Add(window)
	if d.at.IsZero() || w.Before(d.at) {
		return Deadline{at: w, clk: clk}
	}
	return d
}
