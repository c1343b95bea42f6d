package vclock

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSignalWall: on the wall clock a Notify ends the wait, a Notify between
// Arm and Wait is not lost, and an unnotified wait times out.
func TestSignalWall(t *testing.T) {
	sig := NewSignal(nil)
	armed := sig.Arm()
	sig.Notify() // before the wait begins
	if !sig.Wait(armed, time.Hour) {
		t.Fatal("a Notify between Arm and Wait was lost")
	}
	if sig.Wait(sig.Arm(), time.Millisecond) {
		t.Fatal("Wait reported a notification nobody sent")
	}
	armed = sig.Arm()
	go sig.Notify()
	if !sig.Wait(armed, time.Hour) {
		t.Fatal("Wait timed out under a concurrent Notify")
	}
	var none *Signal
	none.Notify() // no waiters, no panic
}

// TestSignalNoLostWakeup hammers the arm-check-wait loop from several
// goroutines against a counter another goroutine raises: every waiter must
// see the final value long before its (deliberately huge) timeout.
func TestSignalNoLostWakeup(t *testing.T) {
	const waiters, target = 4, 2000
	sig := NewSignal(Wall)
	var n atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				armed := sig.Arm()
				if n.Load() == target {
					return
				}
				if !sig.Wait(armed, time.Minute) {
					t.Error("a waiter sat out its timeout: wake-up lost")
					return
				}
			}
		}()
	}
	for i := 0; i < target; i++ {
		n.Add(1)
		sig.Notify()
	}
	wg.Wait()
}

// TestSignalSim: on a simulated clock the waiter is a parked actor that a
// Notify from another actor readies at the same virtual instant, a timeout
// takes exactly its duration of virtual time, and the interleaving of
// several waiters replays from the seed.
func TestSignalSim(t *testing.T) {
	run := func(seed int64) string {
		sim := NewSim(seed)
		clk := sim.Clock()
		sig := NewSignal(clk)
		var trace strings.Builder
		level := 0
		if err := sim.Run(func() {
			for _, name := range []string{"w0", "w1", "w2"} {
				name := name
				Go(clk, name, func() {
					for want := 1; want <= 3; want++ {
						for {
							armed := sig.Arm()
							if level >= want {
								break
							}
							if !sig.Wait(armed, time.Hour) {
								t.Errorf("%s timed out waiting for level %d", name, want)
								return
							}
						}
						trace.WriteString(name)
						trace.WriteString(clk.Now().Format("@05.000 "))
					}
				})
			}
			for i := 0; i < 3; i++ {
				clk.Sleep(10 * time.Millisecond)
				level++
				sig.Notify()
			}
			start := clk.Now()
			if sig.Wait(sig.Arm(), 250*time.Millisecond) {
				t.Error("Wait reported a notification nobody sent")
			}
			if got := clk.Since(start); got != 250*time.Millisecond {
				t.Errorf("timeout took %v of virtual time, want 250ms", got)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return trace.String()
	}
	a, b := run(5), run(5)
	if a != b {
		t.Errorf("same seed, different wake-up order:\n%s\n%s", a, b)
	}
	// Every waiter saw every level at the instant it was raised.
	for _, stamp := range []string{"@00.010", "@00.020", "@00.030"} {
		if got := strings.Count(a, stamp); got != 3 {
			t.Errorf("%d wake-ups at %s, want 3 (trace: %s)", got, stamp, a)
		}
	}
}

// TestSignalWaitOutsideRun: waiting on a simulated clock from a goroutine
// the simulation does not schedule would hang; it panics naming the wait
// Signal.Wait goes through.
func TestSignalWaitOutsideRun(t *testing.T) {
	sig := NewSignal(NewSim(1).Clock())
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "vclock: Recv ") {
			t.Fatalf("recovered %v, want a panic naming Recv", r)
		}
	}()
	sig.Wait(sig.Arm(), time.Second)
}
