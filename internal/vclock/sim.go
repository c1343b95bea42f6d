package vclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// simEpoch is the fixed virtual base time. It is a constant (not wall-clock
// derived) so everything stamped from the clock — batch-ID prefixes, token
// bucket refills, deadlines — is identical across same-seed runs.
var simEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// Sim is a seeded virtual clock and the cooperative scheduler of the actors
// running on it (see Run). Obtain Clock handles with Clock(). Virtual time
// advances only from Run's loop, when no actor is runnable: it pops the
// earliest pending timer, sets now to its deadline, and fires it (delivering
// the tick, waking the sleeper, or running the AfterFunc inline).
type Sim struct {
	seed int64

	mu       sync.Mutex
	now      time.Time
	timers   timerHeap
	seq      uint64
	advances uint64

	// Actor set, guarded by mu (see sched.go).
	running   bool // inside Run
	actors    []*actor
	exitCount int
	current   *actor // holder of the run baton, nil while advancing
	advancing bool   // an AfterFunc may be running inline on the Run goroutine
	pickCtr   uint64
	gate      chan struct{} // actor -> Run loop: "I am parked at a gate"
}

// NewSim returns a simulated clock seeded with seed. The seed picks the
// actor interleaving (see Run) but does not perturb time itself, which is
// driven purely by timer deadlines; layers also derive their own decision
// streams from it via Hash64(Seed(), ...).
func NewSim(seed int64) *Sim {
	return &Sim{seed: seed, now: simEpoch, gate: make(chan struct{})}
}

// Seed returns the simulation seed.
func (s *Sim) Seed() int64 { return s.seed }

// Clock returns a Clock handle on the simulation. Handles are cheap and
// shareable; all of them observe the same virtual time.
func (s *Sim) Clock() Clock { return &SimClock{s: s} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Advances returns how many timer fires have driven virtual time so far. It
// is part of a run's replayable trace: two same-seed runs advance the same
// number of times.
func (s *Sim) Advances() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advances
}

// advanceLocked fires the earliest pending timer, if any. Exactly one timer
// fires per advance; ties on the deadline fire in creation order across
// successive advances at the same virtual instant. Returns a non-nil func
// for AfterFunc timers (run it outside the lock) and whether a timer fired
// at all.
func (s *Sim) advanceLocked() (func(), bool) {
	if s.timers.Len() == 0 {
		return nil, false
	}
	tm := heap.Pop(&s.timers).(*simTimer)
	if tm.when.After(s.now) {
		s.now = tm.when
	}
	s.advances++
	tm.state = timerFired
	if tm.fn != nil {
		return tm.fn, true
	}
	tm.ch <- s.now // cap 1, sole pending fire: never blocks
	return nil, true
}

// SimClock is a Clock handle on a Sim. Exported only so code can detect
// simulation via type assertion; construct with (*Sim).Clock().
type SimClock struct{ s *Sim }

// Sim returns the underlying simulation.
func (c *SimClock) Sim() *Sim { return c.s }

func (c *SimClock) Now() time.Time                  { return c.s.Now() }
func (c *SimClock) Since(t time.Time) time.Duration { return c.s.Now().Sub(t) }

// Sleep blocks the calling actor for d of virtual time.
func (c *SimClock) Sleep(d time.Duration) {
	if d > 0 {
		c.s.sleep(d)
	}
}

func (c *SimClock) After(d time.Duration) <-chan time.Time { return c.NewTimer(d).C() }

func (c *SimClock) NewTimer(d time.Duration) Timer {
	return &simTimerHandle{s: c.s, t: c.s.addTimer(d, nil)}
}

func (c *SimClock) AfterFunc(d time.Duration, f func()) Timer {
	return &simTimerHandle{s: c.s, t: c.s.addTimer(d, f)}
}

func (s *Sim) addTimer(d time.Duration, fn func()) *simTimer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	tm := &simTimer{when: s.now.Add(d), seq: s.seq, fn: fn, state: timerPending}
	if fn == nil {
		tm.ch = make(chan time.Time, 1)
	}
	heap.Push(&s.timers, tm)
	return tm
}

type timerState int

const (
	timerPending timerState = iota
	timerFired
	timerStopped
)

type simTimer struct {
	when  time.Time
	seq   uint64
	ch    chan time.Time
	fn    func()
	state timerState
	idx   int // heap index, -1 when popped
}

type simTimerHandle struct {
	s *Sim
	t *simTimer
}

func (h *simTimerHandle) C() <-chan time.Time { return h.t.ch }

// Stop cancels a pending timer. If the timer already fired but its tick was
// never read (another poll arm, e.g. a stop signal, was served first), Stop
// drains the channel so a re-armed timer cannot deliver the stale tick.
func (h *simTimerHandle) Stop() bool {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	t := h.t
	switch t.state {
	case timerPending:
		heap.Remove(&h.s.timers, t.idx)
		t.state = timerStopped
		return true
	case timerFired:
		if t.ch != nil {
			select {
			case <-t.ch:
			default:
			}
		}
		t.state = timerStopped
	}
	return false
}

// Reset re-arms the timer for d from the current virtual now.
func (h *simTimerHandle) Reset(d time.Duration) bool {
	active := h.Stop()
	if d < 0 {
		d = 0
	}
	s := h.s
	s.mu.Lock()
	t := h.t
	s.seq++
	t.when = s.now.Add(d)
	t.seq = s.seq
	t.state = timerPending
	if t.fn == nil && t.ch == nil {
		t.ch = make(chan time.Time, 1)
	}
	heap.Push(&s.timers, t)
	s.mu.Unlock()
	return active
}

func (s *Sim) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("sim(seed=%d now=%s timers=%d advances=%d picks=%d)",
		s.seed, s.now.Format(time.RFC3339Nano), s.timers.Len(), s.advances, s.pickCtr)
}

// timerHeap orders timers by (deadline, creation seq).
type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*simTimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.idx = -1
	*h = old[:n-1]
	return t
}
