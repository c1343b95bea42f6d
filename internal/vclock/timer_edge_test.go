package vclock

import (
	"testing"
	"time"
)

// TestSimTimerEdgeCases pins the timer-state transitions the cluster's
// backoff and election paths lean on: zero/negative durations, Reset after a
// fire (tick read or unread), Reset after Stop, and both orders of a tick
// delivery against a competing stop signal. Each case runs as the root actor
// of a fresh Sim so virtual timestamps are absolute; waits go through Recv,
// as the production event loops do.
func TestSimTimerEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, sim *Sim, clk Clock)
	}{
		{"after-zero-fires-at-now", func(t *testing.T, sim *Sim, clk Clock) {
			at := awaitTick(clk, clk.After(0))
			if got := at.Sub(simEpoch); got != 0 {
				t.Errorf("After(0) fired at +%v, want +0", got)
			}
			if sim.Advances() != 1 {
				t.Errorf("advances = %d, want 1 (a zero-delta fire still counts)", sim.Advances())
			}
		}},
		{"after-negative-clamps-to-zero", func(t *testing.T, sim *Sim, clk Clock) {
			at := awaitTick(clk, clk.After(-time.Second))
			if got := at.Sub(simEpoch); got != 0 {
				t.Errorf("After(-1s) fired at +%v, want +0 (clamped)", got)
			}
		}},
		{"reset-after-fire-unread", func(t *testing.T, sim *Sim, clk Clock) {
			tm := clk.NewTimer(time.Millisecond)
			clk.Sleep(time.Millisecond) // fires at +1ms, tick left in the channel
			if tm.Reset(time.Millisecond) {
				t.Error("Reset on fired timer returned true")
			}
			// The stale +1ms tick must have been drained: the only tick left
			// to read is the re-armed one.
			at := awaitTick(clk, tm.C())
			if got := at.Sub(simEpoch); got != 2*time.Millisecond {
				t.Errorf("re-armed timer fired at +%v, want +2ms", got)
			}
		}},
		{"reset-after-fire-read", func(t *testing.T, sim *Sim, clk Clock) {
			tm := clk.NewTimer(time.Millisecond)
			at := awaitTick(clk, tm.C())
			if got := at.Sub(simEpoch); got != time.Millisecond {
				t.Errorf("timer fired at +%v, want +1ms", got)
			}
			if tm.Reset(2 * time.Millisecond) {
				t.Error("Reset on fired+read timer returned true")
			}
			at = awaitTick(clk, tm.C())
			if got := at.Sub(simEpoch); got != 3*time.Millisecond {
				t.Errorf("re-armed timer fired at +%v, want +3ms (2ms past the 1ms now)", got)
			}
		}},
		{"reset-after-stop-rearms", func(t *testing.T, sim *Sim, clk Clock) {
			tm := clk.NewTimer(time.Hour)
			if !tm.Stop() {
				t.Error("Stop on pending timer returned false")
			}
			if tm.Reset(time.Millisecond) {
				t.Error("Reset on stopped timer returned true")
			}
			at := awaitTick(clk, tm.C())
			if got := at.Sub(simEpoch); got != time.Millisecond {
				t.Errorf("reset-after-stop fired at +%v, want +1ms", got)
			}
			if n := pendingTimers(sim); n != 0 {
				t.Errorf("pending timers = %d, want 0", n)
			}
		}},
		{"stop-is-idempotent", func(t *testing.T, sim *Sim, clk Clock) {
			tm := clk.NewTimer(time.Hour)
			if !tm.Stop() {
				t.Error("first Stop returned false")
			}
			if tm.Stop() {
				t.Error("second Stop on an already-stopped timer returned true")
			}
			if n := pendingTimers(sim); n != 0 {
				t.Errorf("pending timers = %d, want 0", n)
			}
		}},
		{"stop-before-tick", func(t *testing.T, sim *Sim, clk Clock) {
			// The shutdown signal arrives before the timer deadline: the
			// loop serves the stop arm and Stop cancels a pending timer.
			tm := clk.NewTimer(time.Hour)
			stop, ticks := stopAfter(clk, time.Millisecond), 0
			pollStopOrTick(clk, stop, tm, &ticks)
			if ticks != 0 {
				t.Errorf("timer arm served %d times against an earlier stop signal", ticks)
			}
			if !tm.Stop() {
				t.Error("Stop on still-pending timer returned false")
			}
			if n := pendingTimers(sim); n != 0 {
				t.Errorf("pending timers = %d, want 0", n)
			}
			clk.Sleep(time.Millisecond) // time must still advance cleanly
		}},
		{"tick-before-stop", func(t *testing.T, sim *Sim, clk Clock) {
			// The tick is delivered and read before the shutdown signal: the
			// event loop sees one tick, then the stop, and the final Stop on
			// the fired timer reports false.
			tm := clk.NewTimer(time.Millisecond)
			stop, ticks := stopAfter(clk, 2*time.Millisecond), 0
			pollStopOrTick(clk, stop, tm, &ticks)
			if ticks != 1 {
				t.Errorf("ticks = %d, want 1", ticks)
			}
			if tm.Stop() {
				t.Error("Stop on fired+read timer returned true")
			}
		}},
		{"stop-and-tick-same-instant", func(t *testing.T, sim *Sim, clk Clock) {
			// Both arms become ready before the loop polls again: the fixed
			// poll priority serves stop, the tick stays unread, and Stop
			// drains it so a later Reset delivers exactly one fresh tick.
			tm := clk.NewTimer(time.Millisecond)
			stop, ticks := stopAfter(clk, time.Millisecond), 0
			clk.Sleep(time.Millisecond)
			pollStopOrTick(clk, stop, tm, &ticks)
			if ticks != 0 {
				t.Errorf("tick arm served %d times although stop was ready first in poll order", ticks)
			}
			if tm.Stop() {
				t.Error("Stop on fired+unread timer returned true")
			}
			tm.Reset(time.Millisecond)
			if got := awaitTick(clk, tm.C()).Sub(simEpoch); got != 2*time.Millisecond {
				t.Errorf("re-armed timer delivered +%v, want the fresh +2ms tick", got)
			}
		}},
	}
	for i, tc := range cases {
		tc, seed := tc, int64(20+i)
		t.Run(tc.name, func(t *testing.T) {
			runSim(t, seed, func(sim *Sim, clk Clock) { tc.run(t, sim, clk) })
		})
	}
}

// stopAfter returns a channel that receives a stop signal after d, published
// the way memnet and raft publish their events.
func stopAfter(clk Clock, d time.Duration) <-chan struct{} {
	stop := make(chan struct{}, 1)
	clk.AfterFunc(d, func() {
		stop <- struct{}{}
		Publish(clk)
	})
	return stop
}

// pollStopOrTick is the event-loop shape of raft's run: Recv on stop, then
// the tick, in that fixed priority. It returns when stop is served, counting
// the ticks served before it.
func pollStopOrTick(clk Clock, stop <-chan struct{}, tm Timer, ticks *int) {
	for {
		if which, _, _ := Recv[time.Time, struct{}](clk, stop, tm.C(), nil); which == 0 {
			return
		}
		*ticks++
	}
}
