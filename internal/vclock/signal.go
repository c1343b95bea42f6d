package vclock

import (
	"sync"
	"time"
)

// Signal is a broadcast wake-up for "wait until some condition over shared
// state holds" loops whose state changes are announced rather than polled.
// The waiter arms BEFORE it checks the condition and waits on what it armed:
//
//	for {
//		armed := sig.Arm()
//		if condition() { return }
//		if !sig.Wait(armed, remaining) { /* timed out */ }
//	}
//
// A Notify between Arm and Wait closes the armed channel, so the wait returns
// at once — there is no window in which a wake-up is lost. On a Sim clock
// Notify is also a Publish and Wait parks the calling actor, so the wake-up
// order is the seeded picker's choice like every other gate.
type Signal struct {
	clk Clock
	mu  sync.Mutex
	ch  chan struct{} // closed and replaced by every Notify
}

// NewSignal returns a signal whose waits time out on clk (nil = Wall).
func NewSignal(clk Clock) *Signal {
	return &Signal{clk: Or(clk), ch: make(chan struct{})}
}

// Arm returns the channel the next Notify closes.
func (s *Signal) Arm() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ch
}

// Notify wakes every waiter armed before the call. Safe from any goroutine;
// a nil Signal has no waiters.
func (s *Signal) Notify() {
	if s == nil {
		return
	}
	s.mu.Lock()
	close(s.ch)
	s.ch = make(chan struct{})
	s.mu.Unlock()
	Publish(s.clk)
}

// Wait blocks until armed is closed or d has passed on the signal's clock,
// and reports whether it was the notification. The notification is polled
// before the timeout (see Recv).
func (s *Signal) Wait(armed <-chan struct{}, d time.Duration) bool {
	tm := s.clk.NewTimer(d)
	defer tm.Stop()
	which, _, _ := Recv(s.clk, nil, armed, tm.C())
	return which == 1
}
