// Package flowctl is the end-to-end flow-control and retry subsystem for the
// submit path: admission control (a cluster-wide inflight-batch limit and
// token-bucket rate limiting), deadline propagation (a Deadline carried from
// SubmitBatch through every wait loop so no layer waits past the caller's
// budget), and a retry policy (seeded jittered exponential backoff, a
// per-client retry budget, and a circuit breaker tripping on consecutive
// leader-routing failures).
//
// The paper's speedup only matters if the deterministic pipeline stays up
// under sustained traffic; without bounds, a slow replica or a retry stampede
// turns into unbounded memory growth instead of graceful degradation. The
// design principle is deterministic load shedding with typed errors: a caller
// can always distinguish "shed" (ErrOverload — the request was rejected
// before any proposal, and was certainly not applied) from "lost"
// (ErrDeadlineExceeded / ErrRetryBudgetExhausted after a proposal — the
// outcome is ambiguous and only the idempotency layer makes retry safe).
//
// Determinism contract: admission (Admit) never blocks — it sheds
// immediately — and every wait in the package (Backoff.Sleep, deadline
// waits) goes through the injected vclock.Clock, with jitter drawn from
// vclock.Hash64 over (seed, attempt) rather than a shared rng. On a simulated
// clock (vclock.Sim.Run) those clock calls are the actor's yield points,
// which is what makes the simulated overload soak's admit/shed sequence
// bit-replayable from a seed.
package flowctl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prognosticator/internal/metrics"
	"prognosticator/internal/vclock"
)

// Typed shed/loss errors. Callers match with errors.Is.
var (
	// ErrOverload marks a request shed by admission control before any
	// proposal: the inflight-batch limit, an empty rate-limit token bucket,
	// or an open circuit breaker. A request failing with ErrOverload was
	// certainly never applied.
	ErrOverload = errors.New("flowctl: overloaded: shed by admission control")
	// ErrDeadlineExceeded marks a wait that ran out of the caller's budget.
	// If the request had already been proposed, its outcome is ambiguous —
	// it may still commit; resubmission must reuse the idempotency ID.
	ErrDeadlineExceeded = errors.New("flowctl: deadline exceeded")
	// ErrRetryBudgetExhausted marks a retry denied because the per-client
	// retry budget ran dry — the cluster is likely unhealthy and a retry
	// storm would make it worse.
	ErrRetryBudgetExhausted = errors.New("flowctl: retry budget exhausted")
)

// ErrCircuitOpen is returned while the circuit breaker is open after too many
// consecutive leader-routing failures. It wraps ErrOverload: a breaker
// rejection happens before any proposal, so the request was never applied.
var ErrCircuitOpen = fmt.Errorf("%w: circuit breaker open", ErrOverload)

// Config parameterizes a Controller. The zero value disables every limit:
// unbounded inflight, unlimited rate, unlimited retries, no breaker —
// exactly the pre-flow-control behavior, so existing deployments opt in knob
// by knob.
type Config struct {
	// MaxInflight bounds concurrently admitted submit batches cluster-wide
	// (0 = unbounded).
	MaxInflight int
	// SubmitRate is the token-bucket admission rate in batches/second; with
	// no token available the batch is shed, never queued (0 = unlimited).
	SubmitRate float64
	// SubmitBurst is the token-bucket capacity (default: max(1,
	// SubmitRate/4)).
	SubmitBurst float64
	// RetryBudget caps the stored retry tokens; every retry withdraws one
	// and every acknowledged submit deposits RetryRatio (0 = unlimited
	// retries, bounded only by the deadline).
	RetryBudget float64
	// RetryRatio is the budget deposit per acknowledged submit (default
	// 0.1: sustained retries above 10% of throughput drain the budget).
	RetryRatio float64
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive leader-routing failures (0 = breaker disabled).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before a half-open
	// probe (default 250ms).
	BreakerCooldown time.Duration
	// Backoff tunes the jittered exponential backoff used by every retry
	// and poll loop.
	Backoff BackoffConfig
	// Seed drives backoff jitter; per-use Backoff instances derive distinct
	// deterministic seeds from it.
	Seed int64
	// Clock is the time source for the token bucket, breaker cooldown, and
	// backoff sleeps. Nil uses the wall clock; a vclock.Sim clock makes every
	// admission decision a pure function of (seed, virtual time).
	Clock vclock.Clock
}

// Controller enforces one deployment's admission and retry policy. All
// methods are safe for concurrent use; a nil *Controller behaves as fully
// permissive so call sites need no guards.
type Controller struct {
	cfg      Config
	counters *metrics.CounterSet
	budget   *RetryBudget
	breaker  *Breaker
	seedCtr  atomic.Int64

	mu         sync.Mutex
	inflight   int
	inflightHW int
	tokens     float64
	lastRefill time.Time
}

// NewController builds a controller from cfg (see Config for zero-value
// semantics).
func NewController(cfg Config) *Controller {
	if cfg.RetryRatio == 0 {
		cfg.RetryRatio = 0.1
	}
	if cfg.SubmitBurst == 0 {
		cfg.SubmitBurst = cfg.SubmitRate / 4
		if cfg.SubmitBurst < 1 {
			cfg.SubmitBurst = 1
		}
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 250 * time.Millisecond
	}
	cfg.Clock = vclock.Or(cfg.Clock)
	c := &Controller{
		cfg:      cfg,
		counters: metrics.NewCounterSet(),
		tokens:   cfg.SubmitBurst,
	}
	c.lastRefill = cfg.Clock.Now()
	if cfg.RetryBudget > 0 {
		c.budget = NewRetryBudget(cfg.RetryBudget, cfg.RetryRatio)
	}
	if cfg.BreakerThreshold > 0 {
		c.breaker = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock)
	}
	return c
}

// Counters returns the controller's counter set: admitted, shed-inflight,
// shed-rate, shed-breaker, retries, retry-budget-exhausted, breaker-trips,
// backoffs (wait loops that had to start backing off).
func (c *Controller) Counters() *metrics.CounterSet {
	if c == nil {
		return nil
	}
	return c.counters
}

// Admit runs the admission pipeline — breaker, inflight limit, rate bucket —
// and returns a release func for the inflight slot, or a typed shed error
// (always wrapping ErrOverload). Shedding is deterministic: a request is
// rejected immediately when over a limit, never queued.
func (c *Controller) Admit() (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	if c.breaker != nil {
		if err := c.breaker.Allow(); err != nil {
			c.counters.Add("shed-breaker", 1)
			return nil, err
		}
	}
	c.mu.Lock()
	if c.cfg.MaxInflight > 0 && c.inflight >= c.cfg.MaxInflight {
		c.mu.Unlock()
		c.counters.Add("shed-inflight", 1)
		return nil, fmt.Errorf("%w: %d batches inflight (limit %d)",
			ErrOverload, c.cfg.MaxInflight, c.cfg.MaxInflight)
	}
	if c.cfg.SubmitRate > 0 && !c.takeTokenLocked() {
		c.mu.Unlock()
		c.counters.Add("shed-rate", 1)
		return nil, fmt.Errorf("%w: submit rate limit (%.3g/s) exceeded",
			ErrOverload, c.cfg.SubmitRate)
	}
	c.inflight++
	if c.inflight > c.inflightHW {
		c.inflightHW = c.inflight
	}
	c.mu.Unlock()
	c.counters.Add("admitted", 1)
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.inflight--
			c.mu.Unlock()
		})
	}, nil
}

// takeTokenLocked refills the token bucket from the clock and withdraws one
// token, reporting whether one was available.
func (c *Controller) takeTokenLocked() bool {
	now := c.cfg.Clock.Now()
	if elapsed := now.Sub(c.lastRefill); elapsed > 0 {
		c.tokens += elapsed.Seconds() * c.cfg.SubmitRate
		if c.tokens > c.cfg.SubmitBurst {
			c.tokens = c.cfg.SubmitBurst
		}
	}
	c.lastRefill = now
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// Inflight returns the number of currently admitted batches.
func (c *Controller) Inflight() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// InflightHighWater returns the highest concurrent admission observed.
func (c *Controller) InflightHighWater() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflightHW
}

// NewBackoff returns a backoff with a deterministic per-instance seed derived
// from the controller seed (instance ordinal × a large prime), so concurrent
// waiters don't share one jitter stream but a fixed-seed run still produces a
// reproducible family of sequences.
func (c *Controller) NewBackoff() *Backoff {
	if c == nil {
		return NewBackoff(BackoffConfig{}, 1)
	}
	ord := c.seedCtr.Add(1)
	c.counters.Add("backoffs", 1)
	return NewBackoffClock(c.cfg.Backoff, c.cfg.Seed+ord*2654435761, c.cfg.Clock)
}

// AllowRetry withdraws one retry token, returning ErrRetryBudgetExhausted if
// the budget is dry (nil when no budget is configured).
func (c *Controller) AllowRetry() error {
	if c == nil {
		return nil
	}
	if c.budget != nil && !c.budget.Withdraw() {
		c.counters.Add("retry-budget-exhausted", 1)
		return fmt.Errorf("%w (cap %.3g, deposit %.3g per acknowledged submit)",
			ErrRetryBudgetExhausted, c.cfg.RetryBudget, c.cfg.RetryRatio)
	}
	c.counters.Add("retries", 1)
	return nil
}

// RecordSuccess reports an acknowledged submit: deposits into the retry
// budget and closes the breaker.
func (c *Controller) RecordSuccess() {
	if c == nil {
		return
	}
	if c.budget != nil {
		c.budget.Deposit()
	}
	if c.breaker != nil {
		c.breaker.Success()
	}
}

// RecordRouteFailure reports one leader-routing failure to the breaker,
// counting a trip when this failure opens it.
func (c *Controller) RecordRouteFailure() {
	if c == nil || c.breaker == nil {
		return
	}
	if c.breaker.Failure() {
		c.counters.Add("breaker-trips", 1)
	}
}

// RecordRouteSuccess reports a successful proposal route to the breaker
// (resets the consecutive-failure count, closes a half-open probe).
func (c *Controller) RecordRouteSuccess() {
	if c == nil || c.breaker == nil {
		return
	}
	c.breaker.Success()
}

// RetryBudgetBalance returns the current retry token balance (or -1 with no
// budget configured).
func (c *Controller) RetryBudgetBalance() float64 {
	if c == nil || c.budget == nil {
		return -1
	}
	return c.budget.Balance()
}

// BreakerState returns the breaker state (Closed when no breaker is
// configured).
func (c *Controller) BreakerState() BreakerState {
	if c == nil || c.breaker == nil {
		return Closed
	}
	return c.breaker.State()
}
