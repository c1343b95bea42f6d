// Package vclock abstracts time behind a Clock interface with two
// implementations: Wall (production, delegating to package time) and Sim (a
// seeded virtual clock for deterministic whole-cluster tests).
//
// A Sim is both the clock and the cooperative scheduler of everything that
// runs on it: (*Sim).Run(root) runs root as the first actor and drives the
// actor set to completion, one actor at a time. An actor is a clock-aware
// goroutine spawned through Go; it runs until it reaches a gate — a virtual
// Sleep, an explicit Yield after handling one event, a Recv that found none
// of its inputs ready, or a join of another actor — and then hands the run
// baton back. The next runnable actor is picked by a seeded hash over the
// ready set (in spawn order, itself deterministic because actors register
// synchronously in their spawner), and virtual time advances only when every
// actor is idle or sleeping. The ENTIRE interleaving, virtual timestamps
// included, is therefore a pure function of (seed, config), and a run
// executes in milliseconds of real time with zero real sleeps.
//
// There are exactly two clock modes, told apart by the clock's type (IsSim):
// on Wall Yield and Publish are no-ops, Go is the go statement and Recv a
// select, so production code paths carry no simulation cost beyond an
// interface call; on a Sim clock Sleep, Yield, Recv, Go and join must be
// called from an actor of a running Run, and panic naming the call
// otherwise (Publish alone is safe from any goroutine at any time). Every
// event loop, on both clocks, is one loop over Recv: a blocking select on a
// Sim would let the Go runtime, not the seed, resolve which ready arm wins.
//
// Two kinds of goroutines intentionally stay OUTSIDE the actor set: pure
// compute workers that never touch the clock (the engine's batch workers —
// their results are made deterministic by the lock table, and they run to
// completion while the spawning actor holds the baton), and anything on the
// wall clock. An actor must never hold a mutex across a gate: the baton
// holder blocking on a mutex owned by a gated actor would deadlock the
// world. Gates in this codebase are only ever reached between lock regions
// (Sleep in backoff loops, Recv and Yield at event-loop tops).
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

// Publish signals a cross-actor event that does not go through the clock (a
// message placed in an inbox, a channel closed): every idle actor becomes
// ready and re-polls. Safe from any goroutine; no-op on non-Sim clocks.
func Publish(clk Clock) {
	if s := simOf(clk); s != nil {
		s.publish()
	}
}

// Recv waits for the first ready input of stop, a and b, checked in that
// fixed order, and reports which it took: 0 for stop, 1 for a (its value in
// va), 2 for b (its value in vb). A nil channel is never ready. It is the one
// wait in which the two clock modes differ: on Wall it polls once in that
// order and then blocks in a select; on a Sim clock the calling actor parks
// idle between polls until the next Publish or timer fire, so which ready
// input wins is the poll order's choice, never the Go runtime's. An event
// loop calls it once per event and Yields after handling the event.
func Recv[A, B any](clk Clock, stop <-chan struct{}, a <-chan A, b <-chan B) (which int, va A, vb B) {
	sim := simOf(clk)
	var act *actor
	if sim != nil {
		act = sim.blockingGateActor("Recv")
	}
	for {
		select {
		case <-stop:
			return 0, va, vb
		default:
		}
		select {
		case va = <-a:
			return 1, va, vb
		default:
		}
		select {
		case vb = <-b:
			return 2, va, vb
		default:
		}
		if sim != nil {
			sim.park(act, actorIdle)
			continue
		}
		select {
		case <-stop:
			return 0, va, vb
		case va = <-a:
			return 1, va, vb
		case vb = <-b:
			return 2, va, vb
		}
	}
}

// Go runs fn on a new goroutine and returns join, which blocks until fn has
// returned (at once if it already has). Use it instead of the go statement
// for clock-aware code: on a Sim clock fn becomes a new actor, registered
// synchronously by the caller so spawn order — and thus the whole
// interleaving — stays deterministic, and started when the picker first
// selects it; name labels it in deadlock dumps. There join parks the calling
// actor instead of holding the run baton while fn's actor finishes.
func Go(clk Clock, name string, fn func()) (join func()) {
	done := make(chan struct{})
	run := func() {
		defer close(done)
		fn()
	}
	if s := simOf(clk); s != nil {
		s.goActor(name, run)
		return func() { s.join(done) }
	}
	go run()
	return func() { <-done }
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
