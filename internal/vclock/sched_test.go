package vclock

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunSingleActor: a lone actor that sleeps and exits drives virtual
// time itself.
func TestRunSingleActor(t *testing.T) {
	sim := NewSim(1)
	clk := sim.Clock()
	var woke time.Time
	if err := sim.Run(func() {
		clk.Sleep(5 * time.Second)
		woke = clk.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if got := woke.Sub(NewSim(1).Now()); got != 5*time.Second {
		t.Fatalf("slept %v of virtual time, want 5s", got)
	}
	if sim.Advances() == 0 {
		t.Error("sleep did not advance virtual time")
	}
}

// TestInterleavingIsSeedStable: the order in which concurrently runnable
// actors execute is a pure function of the seed — run twice, compare the
// full execution trace.
func TestInterleavingIsSeedStable(t *testing.T) {
	run := func(seed int64) string {
		sim := NewSim(seed)
		clk := sim.Clock()
		var trace strings.Builder
		if err := sim.Run(func() {
			for i := 0; i < 4; i++ {
				i := i
				GoNamed(clk, fmt.Sprintf("worker-%d", i), func() {
					for j := 0; j < 3; j++ {
						fmt.Fprintf(&trace, "w%d.%d@%d ", i, j, clk.Now().UnixNano())
						Yield(clk)
						clk.Sleep(time.Duration(i+1) * time.Millisecond)
					}
				})
			}
		}); err != nil {
			t.Fatal(err)
		}
		return trace.String()
	}
	for _, seed := range []int64{1, 7, 42} {
		a, b := run(seed), run(seed)
		if a != b {
			t.Errorf("seed %d: two runs diverged:\n%s\n%s", seed, a, b)
		}
	}
	// Different seeds should (for this workload) order the yield points
	// differently — otherwise the picker is not actually consulted.
	if run(1) == run(7) && run(1) == run(42) {
		t.Error("three different seeds produced identical interleavings — picker looks unused")
	}
}

// TestPublishWakesIdler: an actor idle-parked in a poll loop is re-readied
// by a Publish from another actor.
func TestPublishWakesIdler(t *testing.T) {
	sim := NewSim(3)
	clk := sim.Clock()
	var got atomic.Int64
	if err := sim.Run(func() {
		ch := make(chan int64, 8)
		GoNamed(clk, "consumer", func() {
			for {
				select {
				case v := <-ch:
					if v < 0 {
						return
					}
					got.Add(v)
					Yield(clk)
					continue
				default:
				}
				Idle(clk)
			}
		})
		for i := int64(1); i <= 5; i++ {
			ch <- i
			Publish(clk)
			Yield(clk)
		}
		ch <- -1
		Publish(clk)
	}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 15 {
		t.Fatalf("consumer summed %d, want 15", got.Load())
	}
}

// TestAwait: stop-style shutdown — close a channel, Await the loop actor's
// exit flag, then WaitGroup-wait without deadlocking the baton.
func TestAwait(t *testing.T) {
	sim := NewSim(9)
	clk := sim.Clock()
	if err := sim.Run(func() {
		stop := make(chan struct{})
		var done atomic.Bool
		GoNamed(clk, "loop", func() {
			defer done.Store(true)
			for {
				select {
				case <-stop:
					return
				default:
				}
				Idle(clk)
			}
		})
		Yield(clk) // let the loop reach its idle gate at least once
		close(stop)
		Await(clk, done.Load)
		if !done.Load() {
			t.Error("Await returned before the loop exited")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitImmediate: a predicate that is already true returns without
// parking.
func TestAwaitImmediate(t *testing.T) {
	sim := NewSim(4)
	clk := sim.Clock()
	if err := sim.Run(func() {
		Await(clk, func() bool { return true })
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockDetected: all actors idle with no pending timers is reported
// as an error, not a hang.
func TestDeadlockDetected(t *testing.T) {
	sim := NewSim(5)
	clk := sim.Clock()
	err := sim.Run(func() {
		for {
			Idle(clk) // idles forever; no timers exist
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

// TestAfterFuncRunsInAdvance: AfterFunc callbacks fire inline during time
// advances and may Publish to wake idle actors.
func TestAfterFuncRunsInAdvance(t *testing.T) {
	sim := NewSim(6)
	clk := sim.Clock()
	var delivered atomic.Bool
	if err := sim.Run(func() {
		var ping atomic.Bool
		clk.AfterFunc(10*time.Millisecond, func() {
			ping.Store(true)
			Publish(clk)
		})
		Await(clk, ping.Load)
		delivered.Store(true)
	}); err != nil {
		t.Fatal(err)
	}
	if !delivered.Load() {
		t.Fatal("AfterFunc never woke the awaiting actor")
	}
}

// TestNestedSpawn: actors spawned from actors (the compaction pattern) run
// and exit cleanly, and their registration order is deterministic.
func TestNestedSpawn(t *testing.T) {
	run := func() string {
		sim := NewSim(11)
		clk := sim.Clock()
		var order strings.Builder
		if err := sim.Run(func() {
			for i := 0; i < 3; i++ {
				i := i
				GoNamed(clk, fmt.Sprintf("outer-%d", i), func() {
					fmt.Fprintf(&order, "o%d ", i)
					GoNamed(clk, fmt.Sprintf("inner-%d", i), func() {
						fmt.Fprintf(&order, "i%d ", i)
					})
					Yield(clk)
				})
			}
		}); err != nil {
			t.Fatal(err)
		}
		return order.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nested spawn order diverged: %q vs %q", a, b)
	}
}

// TestPicksCounted: the scheduler makes at least one pick per actor and the
// count replays.
func TestPicksCounted(t *testing.T) {
	picks := func() uint64 {
		sim := NewSim(13)
		clk := sim.Clock()
		if err := sim.Run(func() {
			for i := 0; i < 3; i++ {
				Yield(clk)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return sim.Picks()
	}
	a, b := picks(), picks()
	if a == 0 || a != b {
		t.Fatalf("picks %d vs %d: want equal and nonzero", a, b)
	}
}

// TestGatesNoopDuringAdvance: Yield/Idle called from an AfterFunc callback
// (which runs inline on the scheduler goroutine during a time advance) are
// no-ops rather than deadlocks; Publish from there is fully functional.
func TestGatesNoopDuringAdvance(t *testing.T) {
	sim := NewSim(8)
	clk := sim.Clock()
	var ran atomic.Bool
	if err := sim.Run(func() {
		clk.AfterFunc(time.Millisecond, func() {
			Yield(clk)
			Idle(clk)
			ran.Store(true)
			Publish(clk)
		})
		clk.Sleep(5 * time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("AfterFunc did not run during the advance")
	}
}
