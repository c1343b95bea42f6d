package vclock

import (
	"fmt"
	"strings"
	"time"
)

type actorState int

const (
	actorReady actorState = iota // runnable, waiting for the picker
	actorRunning
	actorIdle     // parked until the next Publish or timer fire
	actorSleeping // parked until its own wake timer fires
	actorExited
)

func (st actorState) String() string {
	switch st {
	case actorReady:
		return "ready"
	case actorRunning:
		return "running"
	case actorIdle:
		return "idle"
	case actorSleeping:
		return "sleeping"
	default:
		return "exited"
	}
}

type actor struct {
	id     int
	name   string
	state  actorState
	resume chan struct{}
}

// Run runs root as the first actor ("main") and drives the actor set, one
// actor at a time, until every actor has exited. It returns an error on
// deadlock: every live actor idle or sleeping with no pending timer. After a
// deadlock the Sim must be discarded — its actors stay parked forever.
func (s *Sim) Run(root func()) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		panic("vclock: Sim.Run called while the Sim is already running")
	}
	s.running = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running, s.current = false, nil
		s.mu.Unlock()
	}()
	s.goActor("main", root)
	return s.loop()
}

// loop is the scheduler's main loop, run on the goroutine that called Run.
func (s *Sim) loop() error {
	for {
		s.mu.Lock()
		if s.exitCount == len(s.actors) {
			s.mu.Unlock()
			return nil
		}
		var readySet []*actor
		for _, a := range s.actors { // spawn order: deterministic
			if a.state == actorReady {
				readySet = append(readySet, a)
			}
		}
		if len(readySet) > 0 {
			n := Hash64(uint64(s.seed), s.pickCtr) % uint64(len(readySet))
			s.pickCtr++
			a := readySet[n]
			a.state = actorRunning
			s.current = a
			s.mu.Unlock()
			a.resume <- struct{}{} // grant the baton
			<-s.gate               // wait for the next gate (or exit)
			continue
		}
		// Nobody runnable: advance virtual time. AfterFunc callbacks (e.g.
		// delayed network deliveries) run inline here; gates called from
		// them are no-ops (see advancing) and Publish just flips states.
		s.current = nil
		s.advancing = true
		fn, fired := s.advanceLocked()
		s.mu.Unlock()
		if fn != nil {
			fn()
		}
		s.mu.Lock()
		s.advancing = false
		if !fired {
			dump := s.dumpLocked()
			s.mu.Unlock()
			return fmt.Errorf("vclock: deadlock — no runnable actor and no pending timer\n%s", dump)
		}
		// A fire is an observable event: re-ready every idle actor so poll
		// loops can observe delivered ticks and newly enqueued messages. The
		// re-ready-everyone rule is deliberately coarse: an actor whose poll
		// finds nothing goes idle again immediately, and coarse wakeups
		// cannot break determinism because wakeup ORDER is still the
		// picker's choice.
		s.readyIdleLocked()
		s.mu.Unlock()
	}
}

func (s *Sim) dumpLocked() string {
	var b strings.Builder
	for _, a := range s.actors {
		fmt.Fprintf(&b, "  actor %d %q: %s\n", a.id, a.name, a.state)
	}
	return b.String()
}

func (s *Sim) readyIdleLocked() {
	for _, a := range s.actors {
		if a.state == actorIdle {
			a.state = actorReady
		}
	}
}

// Picks returns how many scheduling decisions have been made — part of a
// run's replayable signature: two same-seed runs pick identically.
func (s *Sim) Picks() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pickCtr
}

// goActor registers fn as a new actor. Registration is synchronous (the
// spawner still holds the baton, so registration order — and therefore actor
// identity — is deterministic); fn starts when the picker first selects it.
func (s *Sim) goActor(name string, fn func()) {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		panic("vclock: Go on a Sim clock outside Sim.Run (the goroutine would never be scheduled)")
	}
	a := &actor{id: len(s.actors), name: name, state: actorReady, resume: make(chan struct{})}
	if name == "" {
		a.name = fmt.Sprintf("actor-%d", a.id)
	}
	s.actors = append(s.actors, a)
	s.mu.Unlock()
	go func() {
		<-a.resume // first baton grant
		defer s.exit(a)
		fn()
	}()
}

// exit retires an actor and publishes the exit (a joining actor must re-poll
// its done channel), then returns the baton for good.
func (s *Sim) exit(a *actor) {
	s.mu.Lock()
	a.state = actorExited
	s.exitCount++
	s.readyIdleLocked()
	s.mu.Unlock()
	s.gate <- struct{}{}
}

// park moves the current actor into st, returns the baton, and blocks until
// the picker resumes the actor.
func (s *Sim) park(a *actor, st actorState) {
	s.mu.Lock()
	a.state = st
	s.mu.Unlock()
	s.gate <- struct{}{}
	<-a.resume
}

// gateActor returns the running actor for a gate call, nil if the call came
// from an AfterFunc running inline on the Run goroutine during a time
// advance (Yield is a no-op there: nothing to park). A gate reached
// with no actor running is a caller bug that would otherwise hang forever
// waiting for a baton nobody hands out, so it panics naming the call.
func (s *Sim) gateActor(op string) *actor {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.advancing {
		return nil
	}
	if s.current == nil {
		panic(fmt.Sprintf("vclock: %s on a Sim clock outside Sim.Run (caller is not a scheduled actor)", op))
	}
	return s.current
}

// blockingGateActor is gateActor for gates that cannot be skipped.
func (s *Sim) blockingGateActor(op string) *actor {
	a := s.gateActor(op)
	if a == nil {
		panic(fmt.Sprintf("vclock: %s from an AfterFunc callback (would block the advance loop)", op))
	}
	return a
}

func (s *Sim) yield() {
	if a := s.gateActor("Yield"); a != nil {
		s.park(a, actorReady)
	}
}

func (s *Sim) publish() {
	s.mu.Lock()
	s.readyIdleLocked()
	s.mu.Unlock()
}

// sleep parks the calling actor until a timer at now+d fires for it.
func (s *Sim) sleep(d time.Duration) {
	a := s.blockingGateActor("Sleep")
	s.addTimer(d, func() {
		s.mu.Lock()
		if a.state == actorSleeping {
			a.state = actorReady
		}
		s.mu.Unlock()
	})
	s.park(a, actorSleeping)
}

// join parks the calling actor until done is closed. It publishes once so
// the actor that will close it gets to run even if it was idle (e.g. an
// event loop whose stop channel was just closed).
func (s *Sim) join(done <-chan struct{}) {
	a := s.blockingGateActor("join")
	for published := false; ; published = true {
		select {
		case <-done:
			return
		default:
		}
		if !published {
			s.publish()
		}
		s.park(a, actorIdle)
	}
}
