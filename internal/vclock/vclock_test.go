package vclock

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runSim runs body as the root actor of a fresh Sim and fails the test on
// deadlock.
func runSim(t *testing.T, seed int64, body func(sim *Sim, clk Clock)) *Sim {
	t.Helper()
	sim := NewSim(seed)
	if err := sim.Run(func() { body(sim, sim.Clock()) }); err != nil {
		t.Fatal(err)
	}
	return sim
}

// awaitTick is the actor-side wait for a timer channel.
func awaitTick(clk Clock, ch <-chan time.Time) time.Time {
	_, at, _ := Recv[time.Time, struct{}](clk, nil, ch, nil)
	return at
}

func pendingTimers(s *Sim) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timers.Len()
}

func TestWallBasics(t *testing.T) {
	clk := Or(nil)
	if clk != Wall {
		t.Fatalf("Or(nil) = %v, want Wall", clk)
	}
	if IsSim(clk) {
		t.Fatal("Wall reported as sim")
	}
	t0 := clk.Now()
	clk.Sleep(time.Millisecond)
	if clk.Since(t0) <= 0 {
		t.Fatal("wall Since did not advance across Sleep")
	}
	tm := clk.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("wall timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop on fired wall timer returned true")
	}
	tm.Reset(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("reset wall timer did not fire")
	}
	done := make(chan struct{})
	clk.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("wall AfterFunc did not run")
	}
	<-clk.After(time.Millisecond)
	// Yield and Publish are no-ops on Wall.
	Yield(clk)
	Publish(clk)
}

// TestRecv: on both clocks Recv takes the first ready input in the order
// stop, a, b; a nil channel is never ready (all-nil is TestDeadlockDetected);
// and a Recv that found nothing ready is woken by a send another actor
// publishes and by a timer fire.
func TestRecv(t *testing.T) {
	ready := func(v int) chan int {
		ch := make(chan int, 1)
		ch <- v
		return ch
	}
	tick := func() chan time.Time {
		ch := make(chan time.Time, 1)
		ch <- simEpoch
		return ch
	}
	closed := make(chan struct{})
	close(closed)
	type inputs struct {
		stop <-chan struct{}
		a    <-chan int
		b    <-chan time.Time
	}
	cases := []struct {
		name      string
		in        func(clk Clock) inputs
		which, va int
	}{
		{"stop-beats-a-and-b", func(Clock) inputs { return inputs{closed, ready(1), tick()} }, 0, 0},
		{"a-beats-b", func(Clock) inputs { return inputs{nil, ready(1), tick()} }, 1, 1},
		{"b-when-a-empty", func(Clock) inputs { return inputs{nil, make(chan int), tick()} }, 2, 0},
		{"nil-a-never-ready", func(Clock) inputs { return inputs{nil, nil, tick()} }, 2, 0},
		{"woken-by-publish", func(clk Clock) inputs {
			a := make(chan int, 1)
			Go(clk, "sender", func() {
				a <- 7
				Publish(clk)
			})
			return inputs{nil, a, nil}
		}, 1, 7},
		{"woken-by-timer", func(clk Clock) inputs {
			return inputs{nil, make(chan int), clk.After(5 * time.Millisecond)}
		}, 2, 0},
	}
	for _, tc := range cases {
		check := func(t *testing.T, clk Clock) {
			in := tc.in(clk)
			if which, va, _ := Recv(clk, in.stop, in.a, in.b); which != tc.which || va != tc.va {
				t.Errorf("Recv = (%d, %d), want (%d, %d)", which, va, tc.which, tc.va)
			}
		}
		t.Run(tc.name+"/wall", func(t *testing.T) { check(t, Wall) })
		t.Run(tc.name+"/sim", func(t *testing.T) {
			runSim(t, 3, func(_ *Sim, clk Clock) { check(t, clk) })
		})
	}
}

func TestSimSleepAdvancesVirtualTime(t *testing.T) {
	sim := runSim(t, 1, func(sim *Sim, clk Clock) {
		if !IsSim(clk) {
			t.Error("sim clock not detected by IsSim")
		}
		if clk.(*SimClock).Sim() != sim {
			t.Error("SimClock.Sim mismatch")
		}
		start := clk.Now()
		real0 := time.Now()
		clk.Sleep(10 * time.Hour)
		if got := clk.Since(start); got != 10*time.Hour {
			t.Errorf("virtual Sleep advanced %v, want 10h", got)
		}
		if elapsed := time.Since(real0); elapsed > 5*time.Second {
			t.Errorf("virtual sleep took %v of real time", elapsed)
		}
		clk.Sleep(0) // no-op, must not deadlock
	})
	if sim.Advances() != 1 {
		t.Fatalf("advances = %d, want 1", sim.Advances())
	}
	if sim.Seed() != 1 {
		t.Fatalf("seed = %d", sim.Seed())
	}
}

func TestSimTimerOrderingAcrossActors(t *testing.T) {
	var order []string // actors run one at a time: no lock needed
	runSim(t, 7, func(sim *Sim, clk Clock) {
		for _, d := range []struct {
			name  string
			sleep time.Duration
		}{{"c", 30 * time.Millisecond}, {"a", 10 * time.Millisecond}, {"b", 20 * time.Millisecond}} {
			d := d
			Go(clk, d.name, func() {
				clk.Sleep(d.sleep)
				order = append(order, fmt.Sprintf("%s@%v", d.name, clk.Since(simEpoch)))
			})
		}
	})
	want := "[a@10ms b@20ms c@30ms]"
	if got := fmt.Sprintf("%v", order); got != want {
		t.Fatalf("wake order = %v, want %v", got, want)
	}
}

func TestSimAfterFuncChain(t *testing.T) {
	var fired []time.Duration
	runSim(t, 2, func(sim *Sim, clk Clock) {
		clk.AfterFunc(5*time.Millisecond, func() {
			fired = append(fired, clk.Since(simEpoch))
			clk.AfterFunc(5*time.Millisecond, func() {
				fired = append(fired, clk.Since(simEpoch))
			})
		})
		// Sleep past both: the chain runs inline on the Run goroutine.
		clk.Sleep(50 * time.Millisecond)
	})
	if len(fired) != 2 || fired[0] != 5*time.Millisecond || fired[1] != 10*time.Millisecond {
		t.Fatalf("AfterFunc chain fired at %v", fired)
	}
}

// TestSimTimerStopAndReset pins Stop on a fired-but-unread timer (another
// poll arm was served first): it reports false and drains the stale tick.
// Stop on a pending timer cancels it outright; Reset re-arms at a new
// deadline.
func TestSimTimerStopAndReset(t *testing.T) {
	runSim(t, 4, func(sim *Sim, clk Clock) {
		tm := clk.NewTimer(time.Millisecond)
		clk.Sleep(time.Millisecond) // the timer fires first, tick left unread
		if tm.Stop() {
			t.Error("Stop on fired timer returned true")
		}
		select {
		case at := <-tm.C():
			t.Errorf("Stop left a stale tick (+%v) in the channel", at.Sub(simEpoch))
		default:
		}
		tm2 := clk.NewTimer(time.Hour)
		if !tm2.Stop() {
			t.Error("Stop on pending timer returned false")
		}
		if n := pendingTimers(sim); n != 0 {
			t.Errorf("pending timers after stops: %d", n)
		}
		tm3 := clk.NewTimer(time.Hour)
		if !tm3.Reset(time.Millisecond) {
			t.Error("Reset on pending timer returned false")
		}
		if got := awaitTick(clk, tm3.C()).Sub(simEpoch); got != 2*time.Millisecond {
			t.Errorf("reset timer fired at +%v, want +2ms (1ms past the 1ms now)", got)
		}
	})
}

func TestSimAfterChannel(t *testing.T) {
	sim := runSim(t, 5, func(sim *Sim, clk Clock) {
		if got := awaitTick(clk, clk.After(time.Minute)).Sub(simEpoch); got != time.Minute {
			t.Errorf("After fired at +%v, want +1m", got)
		}
	})
	if got := sim.String(); !strings.Contains(got, "seed=5") || !strings.Contains(got, "advances=1") {
		t.Fatalf("debug formatter: %s", got)
	}
}

// TestSimMisusePanics: a gate reached on a Sim clock with no Run in progress
// would wait forever for a baton nobody hands out; each call must instead
// fail fast, naming itself. Publish alone is legal from anywhere.
func TestSimMisusePanics(t *testing.T) {
	cases := []struct {
		op   string
		call func(clk Clock)
	}{
		{"Sleep", func(clk Clock) { clk.Sleep(time.Millisecond) }},
		{"Yield", func(clk Clock) { Yield(clk) }},
		{"Recv", func(clk Clock) { Recv[struct{}, struct{}](clk, nil, nil, nil) }},
		{"Go", func(clk Clock) { Go(clk, "", func() {}) }},
		{"join", func(clk Clock) {
			// A join kept past the end of the Run that spawned its actor.
			var join func()
			_ = clk.(*SimClock).Sim().Run(func() { join = Go(clk, "", func() {}) })
			join()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			clk := NewSim(6).Clock()
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "vclock: "+tc.op+" ") || !strings.Contains(msg, "outside Sim.Run") {
					t.Fatalf("%s outside Run: recovered %q, want a panic naming the call", tc.op, msg)
				}
			}()
			tc.call(clk)
		})
	}
	t.Run("Publish", func(t *testing.T) {
		Publish(NewSim(6).Clock()) // must neither panic nor block
	})
	t.Run("after-Run", func(t *testing.T) {
		// The misuse check must not be fooled by a finished Run's last actor.
		sim := runSim(t, 6, func(*Sim, Clock) {})
		defer func() {
			if recover() == nil {
				t.Fatal("Yield after Run returned did not panic")
			}
		}()
		Yield(sim.Clock())
	})
	t.Run("blocking-gate-in-AfterFunc", func(t *testing.T) {
		// An AfterFunc runs inline on the Run goroutine: a blocking gate
		// there would stall the advance loop itself.
		for _, i := range []int{0, 2} { // Sleep, Recv
			tc := cases[i]
			var got atomic.Value
			runSim(t, 6, func(sim *Sim, clk Clock) {
				clk.AfterFunc(time.Millisecond, func() {
					defer func() { got.Store(fmt.Sprint(recover())) }()
					tc.call(clk)
				})
				clk.Sleep(2 * time.Millisecond)
			})
			if msg, _ := got.Load().(string); !strings.Contains(msg, tc.op+" from an AfterFunc callback") {
				t.Errorf("%s inside AfterFunc: recovered %q", tc.op, msg)
			}
		}
	})
}

// TestSimDeterministicTrace runs the same multi-actor scenario twice with
// the same seed and requires identical event traces: wake order, virtual
// timestamps, advance counts.
func TestSimDeterministicTrace(t *testing.T) {
	run := func(seed int64) string {
		var trace []string
		sim := runSim(t, seed, func(sim *Sim, clk Clock) {
			for i := 0; i < 5; i++ {
				i := i
				Go(clk, "", func() {
					for step := 0; step < 3; step++ {
						ms := time.Duration(Hash64(uint64(seed), uint64(i), uint64(step))%1000) * time.Millisecond
						clk.Sleep(ms)
						trace = append(trace, fmt.Sprintf("g%d.%d@%v", i, step, clk.Since(simEpoch)))
					}
				})
			}
		})
		return fmt.Sprintf("%v advances=%d picks=%d now=%v", trace, sim.Advances(), sim.Picks(), sim.Now().Sub(simEpoch))
	}
	a, b := run(11), run(11)
	if a != b {
		t.Fatalf("same-seed traces differ:\n%s\n%s", a, b)
	}
	if c := run(12); c == a {
		t.Fatalf("different seeds produced identical traces: %s", c)
	}
}

func TestHash64(t *testing.T) {
	if Hash64(1, 2, 3) != Hash64(1, 2, 3) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 2, 3) == Hash64(1, 2, 4) {
		t.Fatal("Hash64 collision on adjacent inputs")
	}
	if Hash64() == Hash64(0) {
		t.Fatal("Hash64 ignores a zero element")
	}
}
