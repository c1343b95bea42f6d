package flowctl

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"prognosticator/internal/vclock"
)

// TestBackoffJitterDeterministic pins the exact jitter sequence for a fixed
// seed: the backoff is a pure function of (config, seed), so chaos and soak
// runs that log a seed are reproducible down to individual sleep durations.
func TestBackoffJitterDeterministic(t *testing.T) {
	want := []time.Duration{686514, 1066000, 3208187, 4835274, 8350547, 22131092, 58012068, 44302267}
	b := newBackoff(42, nil)
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("seed 42 step %d: got %v want %v", i, got, w)
		}
	}
	// Same seed replays the identical sequence; a different seed diverges.
	b2 := newBackoff(42, nil)
	for i, w := range want {
		if got := b2.Next(); got != w {
			t.Fatalf("replay step %d: got %v want %v", i, got, w)
		}
	}
	b3 := newBackoff(43, nil)
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
	b := newBackoff(7, nil)
	prevMax := time.Duration(0)
	for i := 0; i < 20; i++ {
		d := b.Next()
		// With jitter 0.5 every step lies in [step/2, step], step <= cap.
		if d > backoffCap {
			t.Fatalf("step %d: %v exceeds cap %v", i, d, backoffCap)
		}
		if d < backoffBase/2 {
			t.Fatalf("step %d: %v below base/2", i, d)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax < backoffCap/2 {
		t.Fatalf("never reached capped range: max %v", prevMax)
	}
}

func TestBackoffSleepDeadline(t *testing.T) {
	onSim(t, 1, func(clk vclock.Clock) {
		b := newBackoff(1, clk)
		// Expired deadline: immediate typed error, no sleep.
		start := clk.Now()
		if err := b.Sleep(AfterClock(clk, -time.Second)); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("Sleep(expired) = %v, want ErrDeadlineExceeded", err)
		}
		if clk.Since(start) != 0 {
			t.Error("Sleep(expired) actually slept")
		}
		// Live deadline truncates a capped backoff step to the remaining budget.
		for i := 0; i < 10; i++ {
			b.Next()
		}
		if err := b.Sleep(AfterClock(clk, time.Millisecond)); err != nil {
			t.Errorf("Sleep(live) = %v", err)
		}
		if el := clk.Since(start); el != time.Millisecond {
			t.Errorf("Sleep not truncated to deadline: slept %v", el)
		}
	})
}

func TestDeadlineSemantics(t *testing.T) {
	past := AfterClock(nil, -time.Minute)
	if !past.Expired() || past.Remaining() > 0 {
		t.Fatal("past deadline not expired")
	}
	fut := AfterClock(nil, time.Hour)
	if fut.Expired() || fut.Remaining() < 59*time.Minute {
		t.Fatal("future deadline misreported")
	}
	// Bound: window earlier than deadline wins; deadline earlier than window wins.
	if b := fut.Bound(time.Millisecond); b.Remaining() > time.Second {
		t.Fatalf("Bound(1ms) kept far deadline: %v", b.Remaining())
	}
	near := AfterClock(nil, time.Millisecond)
	if b := near.Bound(time.Hour); b.Remaining() > time.Second {
		t.Fatalf("Bound(1h) extended near deadline: %v", b.Remaining())
	}
	// A derived deadline keeps its parent's clock.
	onSim(t, 1, func(clk vclock.Clock) {
		d := AfterClock(clk, time.Hour).Bound(time.Second)
		clk.Sleep(time.Second)
		if !d.Expired() || d.Remaining() != 0 {
			t.Errorf("bounded sim deadline: expired=%v remaining=%v", d.Expired(), d.Remaining())
		}
	})
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
		c.RecordRouteFailure()
	}
	if breakerState(c) != "closed" {
		t.Fatal("zero config enabled the breaker")
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
	if c.inflight != 2 || c.InflightHighWater() != 2 {
		t.Fatalf("inflight=%d hw=%d", c.inflight, c.InflightHighWater())
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

// TestConcurrentAdmission drives every controller method from several
// goroutines at once, with route failures tripping the breaker: the
// cap holds, every admission is released, and the counters add up.
func TestConcurrentAdmission(t *testing.T) {
	const workers, ops = 8, 200
	c := NewController(Config{MaxInflight: 3, RetryBudget: 5, BreakerThreshold: 2})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				rel, err := c.Admit()
				if err != nil {
					continue
				}
				switch (w + i) % 4 {
				case 0:
					c.RecordRouteFailure()
				case 1:
					c.RecordRouteSuccess()
				case 2:
					_ = c.AllowRetry()
				default:
					c.RecordSuccess()
				}
				rel()
			}
		}(w)
	}
	wg.Wait()
	snap := c.Counters().Snapshot()
	if c.inflight != 0 || c.InflightHighWater() > 3 {
		t.Fatalf("inflight=%d hw=%d after every release", c.inflight, c.InflightHighWater())
	}
	if got := snap["admitted"] + snap["shed-inflight"] + snap["shed-rate"] + snap["shed-breaker"]; got != workers*ops {
		t.Fatalf("admit outcomes %d, want %d: %v", got, workers*ops, snap)
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
		// 10/s holds max(1, 10/4) = 2.5 tokens: a burst of 2 admits, the
		// third sheds with half a token left.
		c := NewController(Config{SubmitRate: 10, Clock: clk})
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
		// 100ms at 10/s refills one token.
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
	c := NewController(Config{RetryBudget: 2})
	if err := c.AllowRetry(); err != nil {
		t.Fatal(err)
	}
	if err := c.AllowRetry(); err != nil {
		t.Fatal(err)
	}
	if err := c.AllowRetry(); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("drained AllowRetry = %v, want ErrRetryBudgetExhausted", err)
	}
	// Each success deposits a tenth of a retry: ten make exactly one.
	for i := 0; i < 9; i++ {
		c.RecordSuccess()
	}
	if err := c.AllowRetry(); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatal("nine deposits bought a retry")
	}
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
	if c.retryTenths != 20 {
		t.Fatalf("balance after 100 deposits = %d tenths, want cap 20", c.retryTenths)
	}
	snap := c.Counters().Snapshot()
	if snap["retries"] != 3 || snap["retry-budget-exhausted"] != 3 {
		t.Fatalf("counters = %v", snap)
	}
}

// breakerState names the breaker's state: closed, open, or half-open while
// an admitted probe is out.
func breakerState(c *Controller) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.open:
		return "closed"
	case c.probe != 0:
		return "half-open"
	default:
		return "open"
	}
}

func TestBreakerLifecycle(t *testing.T) {
	onSim(t, 1, func(clk vclock.Clock) {
		c := NewController(Config{BreakerThreshold: 3, Clock: clk})
		want := func(state string) bool {
			if got := breakerState(c); got != state {
				t.Errorf("breaker %s, want %s", got, state)
				return false
			}
			return true
		}

		// Failures below the threshold keep the breaker closed.
		c.RecordRouteFailure()
		c.RecordRouteFailure()
		if !want("closed") {
			return
		}
		if _, err := c.Admit(); err != nil {
			t.Errorf("closed-breaker Admit = %v", err)
			return
		}
		// Third consecutive failure trips it open; admissions shed.
		c.RecordRouteFailure()
		if !want("open") {
			return
		}
		if _, err := c.Admit(); !errors.Is(err, ErrOverload) || !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("open-breaker Admit = %v, want ErrCircuitOpen (wrapping ErrOverload)", err)
			return
		}
		// After the cooldown one half-open probe is admitted, a second sheds.
		clk.Sleep(breakerCooldown)
		rel, err := c.Admit()
		if err != nil {
			t.Errorf("half-open probe Admit = %v", err)
			return
		}
		if !want("half-open") {
			return
		}
		if _, err := c.Admit(); !errors.Is(err, ErrCircuitOpen) {
			t.Error("second half-open probe admitted")
			return
		}
		// A failed probe re-opens; cooldown restarts. Releasing the probe
		// after its outcome changes nothing.
		c.RecordRouteFailure()
		rel()
		if !want("open") {
			return
		}
		clk.Sleep(breakerCooldown)
		rel, err = c.Admit()
		if err != nil {
			t.Errorf("second probe Admit = %v", err)
			return
		}
		// A successful probe closes the breaker and resets the failure count.
		c.RecordRouteSuccess()
		rel()
		if !want("closed") {
			return
		}
		c.RecordRouteFailure()
		c.RecordRouteFailure()
		if !want("closed") {
			return
		}
		snap := c.Counters().Snapshot()
		if snap["breaker-trips"] != 2 || snap["shed-breaker"] != 2 {
			t.Errorf("counters = %v", snap)
		}
	})
}

// TestShedProbeDoesNotWedgeBreaker: once the cooldown is over, a request
// the inflight cap sheds must not take the half-open probe with it — the
// next request that is admitted is the probe.
func TestShedProbeDoesNotWedgeBreaker(t *testing.T) {
	onSim(t, 1, func(clk vclock.Clock) {
		c := NewController(Config{MaxInflight: 1, BreakerThreshold: 1, Clock: clk})
		hold, err := c.Admit()
		if err != nil {
			t.Errorf("first Admit = %v", err)
			return
		}
		c.RecordRouteFailure()
		clk.Sleep(time.Second)
		if _, err := c.Admit(); err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Errorf("Admit over the inflight cap = %v, want an inflight shed", err)
			return
		}
		hold()
		clk.Sleep(time.Second)
		rel, err := c.Admit()
		if err != nil {
			t.Errorf("Admit after the cooldown = %v, want the half-open probe", err)
			return
		}
		c.RecordRouteSuccess()
		rel()
		if _, err := c.Admit(); err != nil {
			t.Errorf("Admit after a successful probe = %v", err)
		}
	})
}

// TestUnresolvedProbeReopens: a probe released with no route outcome (its
// submit found no leader before the deadline, say) is a failed probe. It
// re-opens the breaker, and the next cooldown admits a new probe.
func TestUnresolvedProbeReopens(t *testing.T) {
	onSim(t, 1, func(clk vclock.Clock) {
		c := NewController(Config{BreakerThreshold: 1, Clock: clk})
		c.RecordRouteFailure()
		clk.Sleep(time.Second)
		probe, err := c.Admit()
		if err != nil {
			t.Errorf("probe Admit = %v", err)
			return
		}
		probe()
		if _, err := c.Admit(); !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("Admit right after an unresolved probe = %v, want ErrCircuitOpen", err)
			return
		}
		clk.Sleep(time.Second)
		rel, err := c.Admit()
		if err != nil {
			t.Errorf("Admit a cooldown after an unresolved probe = %v, want a new probe", err)
			return
		}
		rel()
		if trips := c.Counters().Value("breaker-trips"); trips != 3 {
			t.Errorf("breaker-trips = %d, want 3", trips)
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
				BreakerThreshold: 2,
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
