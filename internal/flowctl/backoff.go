package flowctl

import (
	"math/rand"
	"time"

	"prognosticator/internal/vclock"
)

// The backoff schedule, suited to in-process consensus timing: steps start
// at backoffBase and double up to backoffCap. Half of each step is drawn
// uniformly at random ("equal jitter": step/2 + U[0, step/2]), so clients
// that failed together do not all retry together.
const (
	backoffBase       = time.Millisecond
	backoffCap        = 64 * time.Millisecond
	backoffMultiplier = 2
	backoffJitter     = 0.5
)

// Backoff produces a deterministic (seeded) jittered exponential wait
// sequence. One instance serves one wait loop and is not safe for
// concurrent use; concurrent loops get their own (Controller.NewBackoff).
type Backoff struct {
	clk     vclock.Clock
	rng     *rand.Rand
	attempt int
}

// newBackoff returns a backoff seeded for reproducible jitter that sleeps on
// clk — on a simulated clock every Sleep is a virtual wait, so retry loops
// replay bit-identically from the seed.
func newBackoff(seed int64, clk vclock.Clock) *Backoff {
	return &Backoff{clk: vclock.Or(clk), rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next wait duration: exponential growth capped at
// backoffCap, with the jitter fraction drawn from the seeded rng. The
// sequence is a pure function of the seed.
func (b *Backoff) Next() time.Duration {
	step := float64(backoffBase)
	for i := 0; i < b.attempt; i++ {
		step *= backoffMultiplier
		if step >= float64(backoffCap) {
			step = float64(backoffCap)
			break
		}
	}
	b.attempt++
	fixed := step * (1 - backoffJitter)
	jittered := b.rng.Float64() * step * backoffJitter
	return max(time.Duration(fixed+jittered), time.Microsecond)
}

// Sleep blocks for the next backoff step, truncated to the deadline's
// remaining budget. It returns ErrDeadlineExceeded without sleeping when the
// deadline has already passed, so a wait loop structured as
// "check condition; Sleep(dl)" re-checks its condition one final time at the
// deadline edge before giving up.
func (b *Backoff) Sleep(dl Deadline) error {
	rem := dl.Remaining()
	if rem <= 0 {
		return ErrDeadlineExceeded
	}
	b.clk.Sleep(min(b.Next(), rem))
	return nil
}
