// Package memnet provides an in-process message network with configurable
// delay, loss, partitions and per-node down states. It is the transport
// substrate under the Raft implementation (internal/raft), letting consensus
// and chaos tests exercise leader failure, crash/restart, partition and heal
// scenarios deterministically within one process. Delivery and drop counters
// distinguish every drop cause, so tests assert on observable network state
// instead of sleeping.
//
// All time flows through an injected vclock.Clock: artificial delays are
// clock timers (virtual under simulation — zero real sleeps), every enqueue
// is published to the simulation's idle actors, and loss/delay decisions
// come from per-(from,to) hash streams rather than a shared rng, so the
// fault pattern each link sees is independent of goroutine scheduling — the
// property whole-cluster seed replay rests on.
package memnet

import (
	"sync"
	"time"

	"prognosticator/internal/vclock"
)

// Message is one delivered datagram.
type Message struct {
	From    string
	To      string
	Payload any
}

// Stats counts delivery outcomes since the network was created. Every Send
// increments exactly one field, so Delivered plus all drop counters equals
// the number of Send calls whose destination was registered.
type Stats struct {
	// Delivered counts messages placed in a destination inbox.
	Delivered int64
	// DroppedLoss counts drops from the configured loss probability.
	DroppedLoss int64
	// DroppedOverflow counts drops from a full destination inbox
	// (backpressure-as-loss, as UDP would behave).
	DroppedOverflow int64
	// DroppedPartition counts drops across a partition boundary.
	DroppedPartition int64
	// DroppedDown counts drops to or from a node marked down, including
	// in-flight delayed messages canceled when their destination went down.
	DroppedDown int64
	// DroppedClosed counts drops after the network was closed.
	DroppedClosed int64
	// DroppedCanceled counts in-flight delayed messages canceled by Drain —
	// a restarting node must not receive datagrams addressed to its previous
	// life, even ones already "on the wire".
	DroppedCanceled int64
}

// Network is the in-process fabric. All methods are safe for concurrent
// use.
type Network struct {
	clk  vclock.Clock
	seed int64

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	dropProb  float64
	minDelay  time.Duration
	maxDelay  time.Duration
	// blocked holds unordered name pairs that cannot communicate.
	blocked map[[2]string]bool
	// down holds nodes that are crashed: no traffic in or out.
	down   map[string]bool
	closed bool
	stats  Stats
	// pairCtr numbers each (from,to) link's fault decisions; together with
	// the seed it indexes a deterministic hash stream per link.
	pairCtr map[[2]string]uint64
	// pending tracks undelivered delayed sends by destination so Drain and
	// SetDown can cancel them before they fire.
	pending    map[string]map[uint64]*delayedSend
	pendingSeq uint64
}

// New returns a wall-clock network with no loss, no delay and no partitions.
// The seed drives loss and delay decisions, keeping fault scenarios
// reproducible.
func New(seed int64) *Network { return NewWithClock(seed, nil) }

// NewWithClock returns a network whose artificial delays run on clk (nil =
// wall clock). On a vclock.Sim clock every enqueue is published, so an actor
// waiting on an Inbox in vclock.Recv wakes and re-polls.
func NewWithClock(seed int64, clk vclock.Clock) *Network {
	return &Network{
		clk:       vclock.Or(clk),
		seed:      seed,
		endpoints: map[string]*Endpoint{},
		blocked:   map[[2]string]bool{},
		down:      map[string]bool{},
		pairCtr:   map[[2]string]uint64{},
		pending:   map[string]map[uint64]*delayedSend{},
	}
}

// Clock returns the network's time source.
func (n *Network) Clock() vclock.Clock { return n.clk }

// Endpoint registers (or returns) the named endpoint.
func (n *Network) Endpoint(name string) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.endpoints[name]; ok {
		return e
	}
	e := &Endpoint{name: name, net: n, inbox: make(chan Message, 1024)}
	n.endpoints[name] = e
	return e
}

// SetLoss sets the per-message drop probability in [0,1].
func (n *Network) SetLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropProb = p
}

// SetDelay sets the min/max artificial delivery delay.
func (n *Network) SetDelay(min, max time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.minDelay, n.maxDelay = min, max
}

// SetDown marks a node crashed (true) or recovered (false). A down node
// neither sends nor receives; drops are counted as DroppedDown. Taking a node
// down also discards its queued inbox and cancels in-flight delayed messages
// addressed to it — a crashed process loses its socket buffers.
func (n *Network) SetDown(name string, down bool) {
	n.mu.Lock()
	if down {
		n.down[name] = true
		n.cancelPendingLocked(name, &n.stats.DroppedDown)
	} else {
		delete(n.down, name)
	}
	e := n.endpoints[name]
	n.mu.Unlock()
	if down && e != nil {
		n.drainInbox(e)
	}
}

// Drain discards all messages queued in the named endpoint's inbox, cancels
// in-flight delayed messages addressed to it, and returns how many queued
// messages were discarded. A restarting node drains its inbox so the fresh
// process does not observe datagrams addressed to its previous life.
func (n *Network) Drain(name string) int {
	n.mu.Lock()
	e, ok := n.endpoints[name]
	if ok {
		n.cancelPendingLocked(name, &n.stats.DroppedCanceled)
	}
	n.mu.Unlock()
	if !ok {
		return 0
	}
	return n.drainInbox(e)
}

// drainInbox empties e's inbox.
func (n *Network) drainInbox(e *Endpoint) int {
	dropped := 0
	for {
		select {
		case <-e.inbox:
			dropped++
		default:
			return dropped
		}
	}
}

// cancelPendingLocked cancels every undelivered delayed send to name,
// crediting counter once per canceled message.
func (n *Network) cancelPendingLocked(name string, counter *int64) {
	for id, ds := range n.pending[name] {
		ds.canceled = true
		if ds.tm != nil {
			ds.tm.Stop()
		}
		delete(n.pending[name], id)
		*counter++
	}
}

// Stats returns a snapshot of the delivery/drop counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Partition splits the network into groups; messages only flow within a
// group. Any previous partition is replaced.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = map[[2]string]bool{}
	groupOf := map[string]int{}
	for gi, g := range groups {
		for _, name := range g {
			groupOf[name] = gi
		}
	}
	names := make([]string, 0, len(n.endpoints))
	for name := range n.endpoints {
		names = append(names, name)
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			if groupOf[a] != groupOf[b] {
				n.blocked[pair(a, b)] = true
			}
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = map[[2]string]bool{}
}

// Close stops delivery; subsequent sends are dropped.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
}

func pair(a, b string) [2]string {
	if a < b {
		return [2]string{a, b}
	}
	return [2]string{b, a}
}

func strHash(s string) uint64 { return vclock.HashString(s) }

// Endpoint is one addressable node on the network.
type Endpoint struct {
	name  string
	net   *Network
	inbox chan Message
}

// Name returns the endpoint's address.
func (e *Endpoint) Name() string { return e.name }

// Inbox returns the delivery channel.
func (e *Endpoint) Inbox() <-chan Message { return e.inbox }

// delayedSend is one message riding a delay timer toward its destination.
type delayedSend struct {
	id       uint64
	msg      Message
	dst      *Endpoint
	tm       vclock.Timer
	canceled bool
}

// Send delivers payload to the named endpoint, subject to the network's
// loss, delay, partition and down configuration. Delivery is asynchronous; a
// full inbox drops the message (backpressure-as-loss, as UDP would).
//
// Loss and delay are drawn from a hash stream indexed by (seed, from, to,
// ordinal): each link sees a deterministic fault pattern regardless of how
// sends on different links interleave.
func (e *Endpoint) Send(to string, payload any) {
	n := e.net
	n.mu.Lock()
	if n.closed {
		n.stats.DroppedClosed++
		n.mu.Unlock()
		return
	}
	if n.down[e.name] || n.down[to] {
		n.stats.DroppedDown++
		n.mu.Unlock()
		return
	}
	if n.blocked[pair(e.name, to)] {
		n.stats.DroppedPartition++
		n.mu.Unlock()
		return
	}
	link := [2]string{e.name, to}
	ctr := n.pairCtr[link]
	n.pairCtr[link] = ctr + 1
	if n.dropProb > 0 {
		h := vclock.Hash64(uint64(n.seed), strHash(e.name), strHash(to), ctr, 0)
		if float64(h%(1<<53))/(1<<53) < n.dropProb {
			n.stats.DroppedLoss++
			n.mu.Unlock()
			return
		}
	}
	dst, ok := n.endpoints[to]
	if !ok {
		n.mu.Unlock()
		return
	}
	var delay time.Duration
	if n.maxDelay > 0 {
		h := vclock.Hash64(uint64(n.seed), strHash(e.name), strHash(to), ctr, 1)
		delay = n.minDelay + time.Duration(h%uint64(n.maxDelay-n.minDelay+1))
	}
	msg := Message{From: e.name, To: to, Payload: payload}
	if delay == 0 {
		n.enqueueLocked(dst, msg)
		return
	}
	n.pendingSeq++
	ds := &delayedSend{id: n.pendingSeq, msg: msg, dst: dst}
	// The AfterFunc is created under n.mu: timer creation never runs the
	// callback inline, and holding the lock closes the window in which a
	// Drain could miss a not-yet-registered timer.
	ds.tm = n.clk.AfterFunc(delay, func() { n.deliverDelayed(ds) })
	if n.pending[to] == nil {
		n.pending[to] = map[uint64]*delayedSend{}
	}
	n.pending[to][ds.id] = ds
	n.mu.Unlock()
}

// enqueueLocked places msg in dst's inbox (or drops on overflow). Callers
// hold n.mu; it is released here.
func (n *Network) enqueueLocked(dst *Endpoint, msg Message) {
	select {
	case dst.inbox <- msg:
		n.stats.Delivered++
	default:
		n.stats.DroppedOverflow++
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	// On a simulated clock an enqueued message is a published event — idle
	// poll-loop actors (the receiver among them) re-poll their inboxes.
	vclock.Publish(n.clk)
}

// deliverDelayed is the delay-timer callback: re-check the fault state at
// fire time (a partition, crash or close that happened while the message was
// "on the wire" still applies) and deliver.
func (n *Network) deliverDelayed(ds *delayedSend) {
	n.mu.Lock()
	if m := n.pending[ds.msg.To]; m != nil {
		delete(m, ds.id)
	}
	switch {
	case ds.canceled:
		// Counted by the canceling site (Drain or SetDown).
		n.mu.Unlock()
	case n.closed:
		n.stats.DroppedClosed++
		n.mu.Unlock()
	case n.down[ds.msg.From] || n.down[ds.msg.To]:
		n.stats.DroppedDown++
		n.mu.Unlock()
	case n.blocked[pair(ds.msg.From, ds.msg.To)]:
		n.stats.DroppedPartition++
		n.mu.Unlock()
	default:
		n.enqueueLocked(ds.dst, ds.msg)
	}
}
