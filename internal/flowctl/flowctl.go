// Package flowctl is the flow-control and retry subsystem of the submit
// path: admission control (a cluster-wide inflight-batch limit, token-bucket
// rate limiting and a circuit breaker on leader routing), deadline
// propagation (a Deadline carried from SubmitBatch through every wait loop
// so no layer waits past the caller's budget), and a retry policy (seeded
// jittered exponential backoff and a per-client retry budget).
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
// All admission state — the inflight count, the token bucket, the retry
// balance and the breaker — lives in one Controller under one lock, and
// Admit decides breaker, inflight cap and bucket in one critical section.
//
// Determinism contract: Admit never blocks — it sheds immediately — and
// every wait in the package (Backoff.Sleep, deadline waits) goes through the
// injected vclock.Clock. Each Backoff draws its jitter from its own
// math/rand stream, seeded from Config.Seed and the backoff's ordinal, so
// concurrent waiters share no rng. On a simulated clock (vclock.Sim.Run)
// those clock calls are the actor's yield points, which is what makes the
// simulated overload soak's admit/shed sequence bit-replayable from a seed.
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

const (
	// retryRatio is the retry-budget deposit per acknowledged submit:
	// sustained retries above 10% of throughput drain the budget.
	retryRatio = 0.1
	// breakerCooldown is how long the breaker stays open before it admits
	// a half-open probe.
	breakerCooldown = 250 * time.Millisecond
)

// Config parameterizes a Controller. The zero value disables every limit:
// unbounded inflight, unlimited rate, unlimited retries, no breaker.
type Config struct {
	// MaxInflight bounds concurrently admitted submit batches cluster-wide
	// (0 = unbounded).
	MaxInflight int
	// SubmitRate is the token-bucket admission rate in batches/second; with
	// no token available the batch is shed, never queued (0 = unlimited).
	// The bucket holds max(1, SubmitRate/4) tokens.
	SubmitRate float64
	// RetryBudget caps the stored retry tokens; every retry withdraws one
	// and every acknowledged submit deposits 0.1 (0 = unlimited retries,
	// bounded only by the deadline).
	RetryBudget float64
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive leader-routing failures (0 = breaker disabled). An open
	// breaker sheds for 250ms, then admits one probe.
	BreakerThreshold int
	// Seed drives backoff jitter; each Backoff derives a distinct
	// deterministic seed from it.
	Seed int64
	// Clock is the time source for the token bucket, breaker cooldown, and
	// backoff sleeps. Nil uses the wall clock; a vclock.Sim clock makes every
	// admission decision a pure function of (seed, virtual time).
	Clock vclock.Clock
}

// Controller enforces one deployment's admission and retry policy. All
// methods are safe for concurrent use.
type Controller struct {
	cfg      Config
	burst    float64
	counters *metrics.CounterSet
	backoffs atomic.Int64

	mu          sync.Mutex
	inflight    int
	inflightHW  int
	tokens      float64
	lastRefill  time.Time
	retryTokens float64
	// The breaker: open since openedAt after failures consecutive route
	// failures reached the threshold. probe is the ordinal of the admitted
	// half-open probe (0 when none is out); probes counts them.
	open     bool
	failures int
	openedAt time.Time
	probe    uint64
	probes   uint64
}

// NewController builds a controller from cfg (see Config for zero-value
// semantics).
func NewController(cfg Config) *Controller {
	cfg.Clock = vclock.Or(cfg.Clock)
	burst := cfg.SubmitRate / 4
	if burst < 1 {
		burst = 1
	}
	return &Controller{
		cfg:         cfg,
		burst:       burst,
		counters:    metrics.NewCounterSet(),
		tokens:      burst,
		lastRefill:  cfg.Clock.Now(),
		retryTokens: cfg.RetryBudget,
	}
}

// Counters returns the controller's counter set: admitted, shed-inflight,
// shed-rate, shed-breaker, retries, retry-budget-exhausted, breaker-trips,
// backoffs (wait loops that had to start backing off).
func (c *Controller) Counters() *metrics.CounterSet { return c.counters }

// Admit decides breaker, inflight limit and rate bucket in one critical
// section and returns a release func for the inflight slot, or a typed shed
// error (always wrapping ErrOverload). Shedding is deterministic: a request
// is rejected immediately when over a limit, never queued. Only an admitted
// request can be the breaker's half-open probe; if its release runs before
// any route outcome was recorded, the probe counts as failed.
func (c *Controller) Admit() (release func(), err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	probing := c.open
	if probing && (c.probe != 0 || c.cfg.Clock.Since(c.openedAt) < breakerCooldown) {
		c.counters.Add("shed-breaker", 1)
		return nil, ErrCircuitOpen
	}
	if c.cfg.MaxInflight > 0 && c.inflight >= c.cfg.MaxInflight {
		c.counters.Add("shed-inflight", 1)
		return nil, fmt.Errorf("%w: %d batches inflight (limit %d)",
			ErrOverload, c.cfg.MaxInflight, c.cfg.MaxInflight)
	}
	if c.cfg.SubmitRate > 0 && !c.takeTokenLocked() {
		c.counters.Add("shed-rate", 1)
		return nil, fmt.Errorf("%w: submit rate limit (%.3g/s) exceeded",
			ErrOverload, c.cfg.SubmitRate)
	}
	var probe uint64
	if probing {
		c.probes++
		probe, c.probe = c.probes, c.probes
	}
	c.inflight++
	c.inflightHW = max(c.inflightHW, c.inflight)
	c.counters.Add("admitted", 1)
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.inflight--
			if probe != 0 && c.probe == probe {
				c.routeFailureLocked()
			}
		})
	}, nil
}

// takeTokenLocked refills the token bucket from the clock and withdraws one
// token, reporting whether one was available.
func (c *Controller) takeTokenLocked() bool {
	now := c.cfg.Clock.Now()
	if elapsed := now.Sub(c.lastRefill); elapsed > 0 {
		c.tokens += elapsed.Seconds() * c.cfg.SubmitRate
		if c.tokens > c.burst {
			c.tokens = c.burst
		}
	}
	c.lastRefill = now
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// InflightHighWater returns the highest concurrent admission observed.
func (c *Controller) InflightHighWater() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflightHW
}

// NewBackoff returns a backoff with a deterministic per-instance seed derived
// from the controller seed (instance ordinal × a large prime), so concurrent
// waiters don't share one jitter stream but a fixed-seed run still produces a
// reproducible family of sequences.
func (c *Controller) NewBackoff() *Backoff {
	ord := c.backoffs.Add(1)
	c.counters.Add("backoffs", 1)
	return newBackoff(c.cfg.Seed+ord*2654435761, c.cfg.Clock)
}

// AllowRetry withdraws one retry token, returning ErrRetryBudgetExhausted if
// the budget is dry (nil when no budget is configured).
func (c *Controller) AllowRetry() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.RetryBudget > 0 {
		if c.retryTokens < 1 {
			c.counters.Add("retry-budget-exhausted", 1)
			return fmt.Errorf("%w (cap %.3g, deposit %.3g per acknowledged submit)",
				ErrRetryBudgetExhausted, c.cfg.RetryBudget, retryRatio)
		}
		c.retryTokens--
	}
	c.counters.Add("retries", 1)
	return nil
}

// RecordSuccess reports an acknowledged submit: deposits into the retry
// budget and closes the breaker.
func (c *Controller) RecordSuccess() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retryTokens = min(c.retryTokens+retryRatio, c.cfg.RetryBudget)
	c.routeSuccessLocked()
}

// RecordRouteFailure reports one leader-routing failure to the breaker: it
// trips the breaker at the threshold, and re-opens it on a failed probe.
func (c *Controller) RecordRouteFailure() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routeFailureLocked()
}

// RecordRouteSuccess reports a successful proposal route to the breaker: it
// resets the consecutive-failure count and closes the breaker.
func (c *Controller) RecordRouteSuccess() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routeSuccessLocked()
}

func (c *Controller) routeSuccessLocked() {
	c.open, c.failures, c.probe = false, 0, 0
}

// routeFailureLocked counts one consecutive failure. It opens a closed
// breaker at the threshold and re-opens one whose probe is out, restarting
// the cooldown; a failure while open with no probe out changes nothing.
func (c *Controller) routeFailureLocked() {
	if c.cfg.BreakerThreshold == 0 {
		return
	}
	c.failures++
	if c.probe == 0 && (c.open || c.failures < c.cfg.BreakerThreshold) {
		return
	}
	c.open, c.openedAt, c.probe = true, c.cfg.Clock.Now(), 0
	c.counters.Add("breaker-trips", 1)
}
