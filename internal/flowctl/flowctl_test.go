package flowctl

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"prognosticator/internal/vclock"
)

// TestBackoffJitterDeterministic pins the exact jitter sequence for a fixed
// seed: the backoff is a pure function of (config, seed), so chaos and soak
// runs that log a seed are reproducible down to individual sleep durations.
func TestBackoffJitterDeterministic(t *testing.T) {
	want := []time.Duration{686514, 1066000, 3208187, 4835274, 8350547, 22131092, 58012068, 44302267}
	b := NewBackoff(BackoffConfig{}, 42)
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("seed 42 step %d: got %v want %v", i, got, w)
		}
	}
	// Same seed replays the identical sequence; a different seed diverges.
	b2 := NewBackoff(BackoffConfig{}, 42)
	for i, w := range want {
		if got := b2.Next(); got != w {
			t.Fatalf("replay step %d: got %v want %v", i, got, w)
		}
	}
	b3 := NewBackoff(BackoffConfig{}, 43)
	same := true
	for _, w := range want {
		if b3.Next() != w {
			same = false
		}
	}
	if same {
		t.Fatal("seed 43 reproduced seed 42's jitter sequence")
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	cfg := BackoffConfig{Base: time.Millisecond, Cap: 8 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
	b := NewBackoff(cfg, 7)
	prevMax := time.Duration(0)
	for i := 0; i < 20; i++ {
		d := b.Next()
		// With jitter 0.5 every step lies in [step/2, step], step <= Cap.
		if d > cfg.Cap {
			t.Fatalf("step %d: %v exceeds cap %v", i, d, cfg.Cap)
		}
		if d < cfg.Base/2 {
			t.Fatalf("step %d: %v below base/2", i, d)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax < cfg.Cap/2 {
		t.Fatalf("never reached capped range: max %v", prevMax)
	}
	if got := b.Attempts(); got != 20 {
		t.Fatalf("Attempts = %d, want 20", got)
	}
	b.Reset()
	if got := b.Attempts(); got != 0 {
		t.Fatalf("Attempts after Reset = %d, want 0", got)
	}
	if d := b.Next(); d > cfg.Base {
		t.Fatalf("first step after Reset %v exceeds base %v", d, cfg.Base)
	}
}

func TestBackoffSleepDeadline(t *testing.T) {
	b := NewBackoff(BackoffConfig{Base: time.Hour, Cap: time.Hour}, 1)
	// Expired deadline: immediate typed error, no sleep.
	start := time.Now()
	if err := b.Sleep(At(time.Now().Add(-time.Second))); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Sleep(expired) = %v, want ErrDeadlineExceeded", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("Sleep(expired) actually slept")
	}
	// Live deadline truncates a huge backoff step to the remaining budget.
	start = time.Now()
	if err := b.Sleep(After(10 * time.Millisecond)); err != nil {
		t.Fatalf("Sleep(live) = %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("Sleep not truncated to deadline: slept %v", el)
	}
}

func TestDeadlineSemantics(t *testing.T) {
	var zero Deadline
	if !zero.IsZero() || zero.Expired() || zero.Check() != nil {
		t.Fatal("zero Deadline must never expire")
	}
	if zero.Remaining() <= 0 {
		t.Fatal("zero Deadline must report large Remaining")
	}
	if !None().IsZero() {
		t.Fatal("None() not zero")
	}
	past := At(time.Now().Add(-time.Minute))
	if !past.Expired() || !errors.Is(past.Check(), ErrDeadlineExceeded) || past.Remaining() > 0 {
		t.Fatal("past deadline not expired")
	}
	fut := After(time.Hour)
	if fut.Expired() || fut.Check() != nil || fut.Time().IsZero() {
		t.Fatal("future deadline misreported")
	}
	// Bound: window earlier than deadline wins; deadline earlier than window wins.
	if b := fut.Bound(time.Millisecond); b.Remaining() > time.Second {
		t.Fatalf("Bound(1ms) kept far deadline: %v", b.Remaining())
	}
	near := After(time.Millisecond)
	if b := near.Bound(time.Hour); b.Remaining() > time.Second {
		t.Fatalf("Bound(1h) extended near deadline: %v", b.Remaining())
	}
	if b := zero.Bound(time.Minute); b.IsZero() || b.Remaining() > 2*time.Minute {
		t.Fatal("Bound on zero deadline must produce the window")
	}
}

func TestNilControllerPermissive(t *testing.T) {
	var c *Controller
	release, err := c.Admit()
	if err != nil {
		t.Fatalf("nil Admit = %v", err)
	}
	release()
	if err := c.AllowRetry(); err != nil {
		t.Fatalf("nil AllowRetry = %v", err)
	}
	c.RecordSuccess()
	c.RecordRouteFailure()
	c.RecordRouteSuccess()
	if c.Counters() != nil || c.Inflight() != 0 || c.InflightHighWater() != 0 {
		t.Fatal("nil controller accessors not zero")
	}
	if c.RetryBudgetBalance() != -1 || c.BreakerState() != Closed {
		t.Fatal("nil controller budget/breaker not disabled")
	}
	if c.NewBackoff() == nil {
		t.Fatal("nil controller NewBackoff returned nil")
	}
}

func TestZeroConfigUnlimited(t *testing.T) {
	c := NewController(Config{})
	for i := 0; i < 100; i++ {
		if _, err := c.Admit(); err != nil {
			t.Fatalf("zero-config Admit %d = %v", i, err)
		}
		if err := c.AllowRetry(); err != nil {
			t.Fatalf("zero-config AllowRetry %d = %v", i, err)
		}
	}
	if c.BreakerState() != Closed || c.RetryBudgetBalance() != -1 {
		t.Fatal("zero config enabled a limiter")
	}
}

func TestInflightLimit(t *testing.T) {
	c := NewController(Config{MaxInflight: 2})
	r1, err := c.Admit()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Admit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(); !errors.Is(err, ErrOverload) {
		t.Fatalf("third Admit = %v, want ErrOverload", err)
	}
	if c.Inflight() != 2 || c.InflightHighWater() != 2 {
		t.Fatalf("inflight=%d hw=%d", c.Inflight(), c.InflightHighWater())
	}
	r1()
	r1() // idempotent release must not free a second slot
	if _, err := c.Admit(); err != nil {
		t.Fatalf("Admit after release = %v", err)
	}
	if _, err := c.Admit(); !errors.Is(err, ErrOverload) {
		t.Fatal("double release freed two slots")
	}
	r2()
	snap := c.Counters().Snapshot()
	if snap["admitted"] != 3 || snap["shed-inflight"] != 2 {
		t.Fatalf("counters = %v", snap)
	}
}

// onSim runs body as the root actor of a fresh simulated clock: virtual
// Sleeps are the actor's gates, so the script runs in zero real time. body
// runs on an actor goroutine and must report with t.Error, not t.Fatal.
func onSim(t *testing.T, seed int64, body func(clk vclock.Clock)) {
	t.Helper()
	sim := vclock.NewSim(seed)
	if err := sim.Run(func() { body(sim.Clock()) }); err != nil {
		t.Fatal(err)
	}
}

func TestRateLimitFakeClock(t *testing.T) {
	onSim(t, 1, func(clk vclock.Clock) {
		c := NewController(Config{SubmitRate: 10, SubmitBurst: 2, Clock: clk})
		// Burst of 2 admits, third sheds.
		for i := 0; i < 2; i++ {
			rel, err := c.Admit()
			if err != nil {
				t.Errorf("burst Admit %d = %v", i, err)
				return
			}
			rel()
		}
		if _, err := c.Admit(); !errors.Is(err, ErrOverload) {
			t.Errorf("over-burst Admit = %v, want ErrOverload", err)
			return
		}
		// 100ms at 10/s refills exactly one token.
		clk.Sleep(100 * time.Millisecond)
		rel, err := c.Admit()
		if err != nil {
			t.Errorf("post-refill Admit = %v", err)
			return
		}
		rel()
		if _, err := c.Admit(); !errors.Is(err, ErrOverload) {
			t.Error("second post-refill Admit admitted")
			return
		}
		// A long idle caps the bucket at burst, not rate*elapsed.
		clk.Sleep(time.Hour)
		for i := 0; i < 2; i++ {
			rel, err := c.Admit()
			if err != nil {
				t.Errorf("capped-refill Admit %d = %v", i, err)
				return
			}
			rel()
		}
		if _, err := c.Admit(); !errors.Is(err, ErrOverload) {
			t.Error("bucket exceeded burst after idle")
			return
		}
		if c.Counters().Snapshot()["shed-rate"] != 3 {
			t.Errorf("shed-rate = %v", c.Counters().Snapshot())
			return
		}
	})
}

func TestRetryBudget(t *testing.T) {
	c := NewController(Config{RetryBudget: 2, RetryRatio: 0.5})
	if c.RetryBudgetBalance() != 2 {
		t.Fatalf("initial balance %v", c.RetryBudgetBalance())
	}
	if err := c.AllowRetry(); err != nil {
		t.Fatal(err)
	}
	if err := c.AllowRetry(); err != nil {
		t.Fatal(err)
	}
	if err := c.AllowRetry(); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("drained AllowRetry = %v, want ErrRetryBudgetExhausted", err)
	}
	// Two successes deposit 2×0.5 = one retry token.
	c.RecordSuccess()
	c.RecordSuccess()
	if err := c.AllowRetry(); err != nil {
		t.Fatalf("post-deposit AllowRetry = %v", err)
	}
	if err := c.AllowRetry(); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatal("budget refilled past deposits")
	}
	// Deposits cap at the configured budget.
	for i := 0; i < 100; i++ {
		c.RecordSuccess()
	}
	if c.RetryBudgetBalance() != 2 {
		t.Fatalf("balance after 100 deposits = %v, want cap 2", c.RetryBudgetBalance())
	}
	snap := c.Counters().Snapshot()
	if snap["retries"] != 3 || snap["retry-budget-exhausted"] != 2 {
		t.Fatalf("counters = %v", snap)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	onSim(t, 1, func(clk vclock.Clock) {
		c := NewController(Config{BreakerThreshold: 3, BreakerCooldown: time.Second, Clock: clk})

		// Failures below the threshold keep the breaker closed.
		c.RecordRouteFailure()
		c.RecordRouteFailure()
		if c.BreakerState() != Closed {
			t.Error("tripped below threshold")
			return
		}
		if _, err := c.Admit(); err != nil {
			t.Errorf("closed-breaker Admit = %v", err)
			return
		}
		// Third consecutive failure trips it open; admissions shed.
		c.RecordRouteFailure()
		if c.BreakerState() != Open {
			t.Error("did not trip at threshold")
			return
		}
		if _, err := c.Admit(); !errors.Is(err, ErrOverload) || !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("open-breaker Admit = %v, want ErrCircuitOpen (wrapping ErrOverload)", err)
			return
		}
		// After the cooldown one half-open probe is admitted, a second sheds.
		clk.Sleep(2 * time.Second)
		rel, err := c.Admit()
		if err != nil {
			t.Errorf("half-open probe Admit = %v", err)
			return
		}
		rel()
		if c.BreakerState() != HalfOpen {
			t.Errorf("state after probe admit = %v", c.BreakerState())
			return
		}
		if _, err := c.Admit(); !errors.Is(err, ErrCircuitOpen) {
			t.Error("second half-open probe admitted")
			return
		}
		// A failed probe re-opens; cooldown restarts.
		c.RecordRouteFailure()
		if c.BreakerState() != Open {
			t.Error("failed probe did not re-open")
			return
		}
		clk.Sleep(2 * time.Second)
		rel, err = c.Admit()
		if err != nil {
			t.Errorf("second probe Admit = %v", err)
			return
		}
		rel()
		// A successful probe closes the breaker and resets the failure count.
		c.RecordRouteSuccess()
		if c.BreakerState() != Closed {
			t.Error("successful probe did not close")
			return
		}
		c.RecordRouteFailure()
		c.RecordRouteFailure()
		if c.BreakerState() != Closed {
			t.Error("failure count not reset after close")
			return
		}
		snap := c.Counters().Snapshot()
		if snap["breaker-trips"] != 2 || snap["shed-breaker"] != 2 {
			t.Errorf("counters = %v", snap)
			return
		}
		if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
			t.Error("BreakerState.String mismatch")
			return
		}
	})
}

func TestControllerBackoffSeeding(t *testing.T) {
	// Two controllers with the same seed hand out the same family of
	// backoff sequences; distinct instances within one controller differ.
	c1 := NewController(Config{Seed: 99})
	c2 := NewController(Config{Seed: 99})
	a1, b1 := c1.NewBackoff(), c1.NewBackoff()
	a2 := c2.NewBackoff()
	diverged := false
	for i := 0; i < 8; i++ {
		d1 := a1.Next()
		if d1 != a2.Next() {
			t.Fatalf("same-seed controllers diverged at step %d", i)
		}
		if d1 != b1.Next() {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("distinct backoff instances shared one jitter stream")
	}
}

// TestAdmitShedSequenceReplayable is the determinism contract for admission
// control: with the token bucket, breaker, and backoff all running on a
// simulated clock, two same-seed runs of an identical submit script produce
// bit-identical admit/shed sequences — the property chaos soaks rely on to
// replay a failing seed.
func TestAdmitShedSequenceReplayable(t *testing.T) {
	run := func(seed int64) (seq []string, elapsed time.Duration) {
		onSim(t, seed, func(clk vclock.Clock) {
			t0 := clk.Now()
			c := NewController(Config{
				MaxInflight:      2,
				SubmitRate:       20,
				SubmitBurst:      3,
				BreakerThreshold: 2,
				BreakerCooldown:  40 * time.Millisecond,
				Seed:             seed,
				Clock:            clk,
			})
			bo := c.NewBackoff()
			for i := 0; i < 40; i++ {
				rel, err := c.Admit()
				switch {
				case err == nil:
					seq = append(seq, "admit")
					// Route failures on a deterministic pattern to exercise the
					// breaker's open/half-open transitions.
					if vclock.Hash64(uint64(seed), uint64(i))%3 == 0 {
						c.RecordRouteFailure()
					} else {
						c.RecordRouteSuccess()
					}
					rel()
				case errors.Is(err, ErrCircuitOpen):
					seq = append(seq, "shed-breaker")
				default:
					seq = append(seq, "shed")
				}
				clk.Sleep(bo.Next())
			}
			elapsed = clk.Since(t0)
		})
		return seq, elapsed
	}
	a, aElapsed := run(5)
	b, bElapsed := run(5)
	if fmt.Sprint(a) != fmt.Sprint(b) || aElapsed != bElapsed {
		t.Fatalf("same-seed admit/shed sequences differ:\n%v now=%v\n%v now=%v", a, aElapsed, b, bElapsed)
	}
	// The script must exercise both outcomes (whole entries, so a
	// "shed-breaker" does not stand in for a rate/inflight "shed").
	for _, want := range []string{"shed", "admit"} {
		if !slices.Contains(a, want) {
			t.Fatalf("scenario never produced %q: %v", want, a)
		}
	}
}
