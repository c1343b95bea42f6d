// Package vclock abstracts time behind a Clock interface with two
// implementations: Wall (production, delegating to package time) and Sim (a
// seeded virtual clock for deterministic whole-cluster tests).
//
// A Sim is both the clock and the cooperative scheduler of everything that
// runs on it: (*Sim).Run(root) runs root as the first actor and drives the
// actor set to completion, one actor at a time. An actor is a clock-aware
// goroutine spawned through Go/GoNamed; it runs until it reaches a gate — a
// virtual Sleep, an explicit Yield after handling one event, Idle when a
// full poll of its inputs found nothing, or Await — and then hands the run
// baton back. The next runnable actor is picked by a seeded hash over the
// ready set (in spawn order, itself deterministic because actors register
// synchronously in their spawner), and virtual time advances only when every
// actor is idle or sleeping. The ENTIRE interleaving, virtual timestamps
// included, is therefore a pure function of (seed, config), and a run
// executes in milliseconds of real time with zero real sleeps.
//
// There are exactly two clock modes, told apart by the clock's type (IsSim):
// on Wall the helpers Yield/Idle/Publish/Await are no-ops and Go is the go
// statement, so production code paths carry no simulation cost beyond an
// interface call; on a Sim clock every one of them — and Sleep — must be
// called from an actor of a running Run, and panics naming the call
// otherwise (Publish alone is safe from any goroutine at any time). Event
// loops written for both modes keep one blocking select for Wall and one
// poll-and-Idle loop for Sim: a blocking select would let the Go runtime,
// not the seed, resolve which ready arm wins.
//
// Two kinds of goroutines intentionally stay OUTSIDE the actor set: pure
// compute workers that never touch the clock (the engine's batch workers —
// their results are made deterministic by the lock table, and they run to
// completion while the spawning actor holds the baton), and anything on the
// wall clock. An actor must never hold a mutex across a gate: the baton
// holder blocking on a mutex owned by a gated actor would deadlock the
// world. Gates in this codebase are only ever reached between lock regions
// (Sleep in backoff loops, Yield/Idle at poll-loop tops).
package vclock

import (
	"hash/fnv"
	"time"
)

// Clock is the time source injected through raft, flowctl, memnet, tcpnet,
// and the replica layer. Implementations: Wall and (*Sim).Clock().
type Clock interface {
	// Now returns the current (wall or virtual) time.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep blocks for d (virtual time on Sim: the calling actor parks until
	// its wake timer fires; no real time elapses).
	Sleep(d time.Duration)
	// After returns a channel that delivers the fire time after d.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// AfterFunc runs f after d on some goroutine (inline on the Run
	// goroutine, between actors, under Sim). The returned timer's Stop
	// cancels a pending f.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer mirrors time.Timer behind an interface so the Sim can supply virtual
// timers. C returns nil for AfterFunc timers.
type Timer interface {
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending. On the
	// Sim clock Stop also drains an already-fired-but-unread tick, so a
	// following Reset cannot deliver a stale one.
	Stop() bool
	// Reset re-arms the timer for d, reporting whether it was still pending.
	Reset(d time.Duration) bool
}

// Wall is the production clock backed by package time.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (wallClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (wallClock) NewTimer(d time.Duration) Timer { return &wallTimer{t: time.NewTimer(d)} }

func (wallClock) AfterFunc(d time.Duration, f func()) Timer {
	return &wallTimer{t: time.AfterFunc(d, f)}
}

type wallTimer struct{ t *time.Timer }

func (w *wallTimer) C() <-chan time.Time        { return w.t.C }
func (w *wallTimer) Stop() bool                 { return w.t.Stop() }
func (w *wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }

// Or returns clk if non-nil, else Wall. Config structs use it so a zero
// Clock field keeps today's wall-time behavior.
func Or(clk Clock) Clock {
	if clk == nil {
		return Wall
	}
	return clk
}

// IsSim reports whether clk is a simulated clock.
func IsSim(clk Clock) bool { return simOf(clk) != nil }

// simOf returns the simulation behind clk, nil for any other clock.
func simOf(clk Clock) *Sim {
	if sc, ok := clk.(*SimClock); ok {
		return sc.s
	}
	return nil
}

// Yield is a deterministic preemption point: on a Sim clock the calling
// actor parks and the seeded picker chooses the next runnable actor
// (possibly the caller again). No-op on other clocks.
func Yield(clk Clock) {
	if s := simOf(clk); s != nil {
		s.yield()
	}
}

// Idle parks the calling actor until the next published event or timer
// fire; poll loops call it after a full poll found nothing. No-op on
// non-Sim clocks.
func Idle(clk Clock) {
	if s := simOf(clk); s != nil {
		s.idle()
	}
}

// Publish signals a cross-actor event that does not go through the clock (a
// message placed in an inbox, a channel closed): every idle actor becomes
// ready and re-polls. Safe from any goroutine; no-op on non-Sim clocks.
func Publish(clk Clock) {
	if s := simOf(clk); s != nil {
		s.publish()
	}
}

// Await blocks until pred() is true. On a Sim clock the calling actor parks
// between evaluations so other actors can run, and pred is evaluated only
// while the caller holds the run baton, so it may read state written by
// other actors without extra locking. On other clocks it returns immediately
// (callers follow it with their own blocking wait, e.g. WaitGroup.Wait,
// which Await exists to make safe under the one-actor-at-a-time rule).
func Await(clk Clock, pred func() bool) {
	if s := simOf(clk); s != nil {
		s.await(pred)
	}
}

// Go runs fn on a new goroutine. Use instead of the go statement for
// clock-aware code: on a Sim clock fn becomes a new actor, registered
// synchronously by the caller so spawn order — and thus the whole
// interleaving — stays deterministic, and started when the picker first
// selects it.
func Go(clk Clock, fn func()) {
	GoNamed(clk, "", fn)
}

// GoNamed is Go with an actor name for deadlock diagnostics.
func GoNamed(clk Clock, name string, fn func()) {
	if s := simOf(clk); s != nil {
		s.goActor(name, fn)
		return
	}
	go fn()
}

// Hash64 mixes the given values through splitmix64 into one 64-bit hash.
// Layers use it to derive per-decision randomness (raft election jitter,
// memnet per-pair loss/delay streams) as a pure function of stable
// identifiers instead of drawing from a shared rng, whose draw order would
// depend on goroutine scheduling.
func Hash64(vs ...uint64) uint64 {
	h := uint64(0x2545F4914F6CDD1D)
	for _, v := range vs {
		h = splitmix64(h ^ v)
	}
	return splitmix64(h)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// HashString folds a string identifier (a node or endpoint name) into a
// uint64 suitable as a Hash64 input, via FNV-1a.
func HashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
