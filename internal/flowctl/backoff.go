package flowctl

import (
	"math/rand"
	"sync"
	"time"

	"prognosticator/internal/vclock"
)

// BackoffConfig tunes a jittered exponential backoff. Zero values select
// defaults suited to in-process consensus timing (millisecond scale).
type BackoffConfig struct {
	// Base is the first step (default 1ms).
	Base time.Duration
	// Cap bounds the exponential growth (default 64ms).
	Cap time.Duration
	// Multiplier grows the step per attempt (default 2).
	Multiplier float64
	// Jitter in [0,1] is the fraction of each step drawn uniformly at
	// random ("equal jitter": step*(1-J) + U[0, step*J]); default 0.5.
	// Jitter decorrelates retry stampedes — concurrent clients that failed
	// together do not all retry together.
	Jitter float64
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Base == 0 {
		c.Base = time.Millisecond
	}
	if c.Cap == 0 {
		c.Cap = 64 * time.Millisecond
	}
	if c.Multiplier == 0 {
		c.Multiplier = 2
	}
	if c.Jitter == 0 {
		c.Jitter = 0.5
	}
	return c
}

// Backoff produces a deterministic (seeded) jittered exponential wait
// sequence. One instance serves one wait loop; concurrent loops use separate
// instances (see Controller.NewBackoff). Safe for concurrent use anyway.
type Backoff struct {
	cfg BackoffConfig
	clk vclock.Clock

	mu      sync.Mutex
	rng     *rand.Rand
	attempt int
}

// NewBackoff returns a backoff seeded for reproducible jitter, sleeping on
// the wall clock.
func NewBackoff(cfg BackoffConfig, seed int64) *Backoff {
	return NewBackoffClock(cfg, seed, vclock.Wall)
}

// NewBackoffClock returns a backoff seeded for reproducible jitter that
// sleeps on clk — on a simulated clock every Sleep is a virtual wait, so
// retry loops replay bit-identically from the seed.
func NewBackoffClock(cfg BackoffConfig, seed int64, clk vclock.Clock) *Backoff {
	return &Backoff{cfg: cfg.withDefaults(), clk: vclock.Or(clk), rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next wait duration: exponential growth capped at Cap, with
// the configured jitter fraction drawn from the seeded rng. The sequence is a
// pure function of (config, seed).
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	step := float64(b.cfg.Base)
	for i := 0; i < b.attempt; i++ {
		step *= b.cfg.Multiplier
		if step >= float64(b.cfg.Cap) {
			step = float64(b.cfg.Cap)
			break
		}
	}
	b.attempt++
	fixed := step * (1 - b.cfg.Jitter)
	jittered := b.rng.Float64() * step * b.cfg.Jitter
	d := time.Duration(fixed + jittered)
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// Attempts returns how many waits have been produced.
func (b *Backoff) Attempts() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempt
}

// Reset restarts the exponential sequence (the jitter stream continues, so a
// reset backoff stays deterministic for a fixed seed).
func (b *Backoff) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempt = 0
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
	d := b.Next()
	if d > rem {
		d = rem
	}
	b.clk.Sleep(d)
	return nil
}

// RetryBudget is a token bucket for retries (Finagle-style): every
// acknowledged submit deposits ratio tokens, every retry withdraws one, and
// the balance is capped. Under sustained failure the budget drains and
// retries stop — the stampede is bounded instead of amplifying the overload.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

// NewRetryBudget returns a budget starting full (burst headroom at boot).
func NewRetryBudget(max, ratio float64) *RetryBudget {
	return &RetryBudget{tokens: max, max: max, ratio: ratio}
}

// Deposit credits one acknowledged submit's worth of budget.
func (rb *RetryBudget) Deposit() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.tokens += rb.ratio
	if rb.tokens > rb.max {
		rb.tokens = rb.max
	}
}

// Withdraw takes one retry token, reporting whether one was available.
func (rb *RetryBudget) Withdraw() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}

// Balance returns the current token balance.
func (rb *RetryBudget) Balance() float64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.tokens
}

// BreakerState is a circuit breaker state.
type BreakerState int

// Breaker states.
const (
	// Closed passes requests through, counting consecutive failures.
	Closed BreakerState = iota
	// Open sheds every request until the cooldown elapses.
	Open
	// HalfOpen admits a single probe; its outcome closes or re-opens.
	HalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a consecutive-failure circuit breaker for leader routing: when
// every routing attempt keeps landing on a non-leader (an unstable or
// partitioned cluster), the breaker trips and submit attempts shed instantly
// with ErrCircuitOpen instead of burning their deadline re-routing.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	clk       vclock.Clock

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool
}

// NewBreaker returns a closed breaker reading clk for its cooldown (nil =
// wall clock). The half-open probe decision is a pure function of clk's
// time, so breaker behavior replays exactly on a simulated clock.
func NewBreaker(threshold int, cooldown time.Duration, clk vclock.Clock) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, clk: vclock.Or(clk)}
}

// Allow reports whether a request may proceed: nil when closed, nil for the
// single half-open probe after the cooldown, ErrCircuitOpen otherwise.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.clk.Since(b.openedAt) >= b.cooldown {
			b.state = HalfOpen
			b.probing = true
			return nil
		}
		return ErrCircuitOpen
	default: // HalfOpen
		if !b.probing {
			b.probing = true
			return nil
		}
		return ErrCircuitOpen
	}
}

// Success reports a successful route: closes the breaker and resets the
// consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.consecutive = 0
	b.probing = false
}

// Failure reports one routing failure, returning true when this failure
// trips the breaker open (from closed, or a failed half-open probe).
func (b *Breaker) Failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == HalfOpen {
		b.state = Open
		b.openedAt = b.clk.Now()
		b.probing = false
		return true
	}
	if b.state == Closed && b.consecutive >= b.threshold {
		b.state = Open
		b.openedAt = b.clk.Now()
		return true
	}
	return false
}

// State returns the current breaker state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
