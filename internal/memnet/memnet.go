// Package memnet provides an in-process message network with configurable
// delay, loss, partitions and per-node down states. It is the transport
// substrate under the Raft implementation (internal/raft), letting consensus
// and chaos tests exercise leader failure, crash/restart, partition and heal
// scenarios deterministically within one process. Delivery and drop counters
// distinguish every drop cause, so tests assert on observable network state
// instead of sleeping.
//
// Its fault filter (Network.Send) is the only one: it decides the fate of a
// message and hands a survivor to a wire. An Endpoint's wire is its
// destination's inbox; internal/tcpnet's is a socket, so a Network puts the
// same faults on messages between real processes.
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

// Message is one datagram. Its payload is the sender's encoded message, which
// the receiver owns once it is delivered.
type Message struct {
	From    string
	To      string
	Payload []byte
}

// Stats counts delivery outcomes since the network was created. A message
// sent increments exactly one of the Delivered and Dropped fields, unless its
// wire finds no destination (an endpoint never registered, a TCP peer that
// cannot be reached).
type Stats struct {
	// OfferedAcrossPartition counts the messages sent between two live nodes
	// on different sides of a partition, whatever became of them: a check
	// that a partition drops messages can demand drops only when some were
	// offered to it.
	OfferedAcrossPartition int64
	// Delivered counts messages placed in a destination inbox.
	Delivered int64
	// DeliveredBytes sums the payload lengths of the delivered messages.
	DeliveredBytes int64
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
	// group numbers each node's side of the partition; nil when healed.
	group map[string]int
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
	n.cancelPendingLocked(name, &n.stats.DroppedCanceled)
	e := n.endpoints[name]
	n.mu.Unlock()
	if e == nil {
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
		ds.tm.Stop()
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
// group, and a node named in no group is in the first. Any previous
// partition is replaced.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = map[string]int{}
	for gi, g := range groups {
		for _, name := range g {
			n.group[name] = gi
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = nil
}

// Close stops delivery; subsequent sends are dropped.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
}

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

// Send delivers payload to the named endpoint's inbox through the network's
// faults (see Network.Send). Delivery is asynchronous; a full inbox drops
// the message (backpressure-as-loss, as UDP would).
func (e *Endpoint) Send(to string, payload []byte) {
	e.net.Send(Message{From: e.name, To: to, Payload: payload}, e.net.toInbox)
}

// delayedSend is one message riding a delay timer toward its wire.
type delayedSend struct {
	id       uint64
	msg      Message
	wire     func(Message)
	tm       vclock.Timer
	canceled bool
}

// Send is the network's fault filter: it decides whether msg is dropped —
// the network is closed, its sender or destination is down, a partition
// separates them, or the loss draw says so — and hands a survivor to wire,
// at once or when its delay has elapsed. Every drop is counted; wire, which
// runs outside the network's lock, counts what it delivers (see Deliver).
//
// Loss and delay are drawn from a hash stream indexed by (seed, from, to,
// ordinal): each link sees a deterministic fault pattern regardless of how
// sends on different links interleave.
func (n *Network) Send(msg Message, wire func(Message)) {
	n.mu.Lock()
	if !n.closed && !n.down[msg.From] && !n.down[msg.To] && n.group[msg.From] != n.group[msg.To] {
		n.stats.OfferedAcrossPartition++
	}
	if !n.passLocked(msg) {
		n.mu.Unlock()
		return
	}
	from, to := vclock.HashString(msg.From), vclock.HashString(msg.To)
	link := [2]string{msg.From, msg.To}
	ctr := n.pairCtr[link]
	n.pairCtr[link] = ctr + 1
	if n.dropProb > 0 {
		h := vclock.Hash64(uint64(n.seed), from, to, ctr, 0)
		if float64(h%(1<<53))/(1<<53) < n.dropProb {
			n.stats.DroppedLoss++
			n.mu.Unlock()
			return
		}
	}
	var delay time.Duration
	if n.maxDelay > 0 {
		h := vclock.Hash64(uint64(n.seed), from, to, ctr, 1)
		delay = n.minDelay + time.Duration(h%uint64(n.maxDelay-n.minDelay+1))
	}
	if delay == 0 {
		n.mu.Unlock()
		wire(msg)
		return
	}
	n.pendingSeq++
	ds := &delayedSend{id: n.pendingSeq, msg: msg, wire: wire}
	// The AfterFunc is created under n.mu: timer creation never runs the
	// callback inline, and holding the lock closes the window in which a
	// Drain could miss a not-yet-registered timer.
	ds.tm = n.clk.AfterFunc(delay, func() { n.deliverDelayed(ds) })
	if n.pending[msg.To] == nil {
		n.pending[msg.To] = map[uint64]*delayedSend{}
	}
	n.pending[msg.To][ds.id] = ds
	n.mu.Unlock()
}

// passLocked reports whether msg gets past a closed network, a down node and
// a partition, counting the drop when it does not. Callers hold n.mu.
func (n *Network) passLocked(msg Message) bool {
	switch {
	case n.closed:
		n.stats.DroppedClosed++
	case n.down[msg.From] || n.down[msg.To]:
		n.stats.DroppedDown++
	case n.group[msg.From] != n.group[msg.To]:
		n.stats.DroppedPartition++
	default:
		return true
	}
	return false
}

// deliverDelayed is the delay-timer callback: re-check the fault state at
// fire time (a partition, crash or close that happened while the message was
// "on the wire" still applies) and hand the message to its wire.
func (n *Network) deliverDelayed(ds *delayedSend) {
	n.mu.Lock()
	delete(n.pending[ds.msg.To], ds.id)
	// A canceled send was counted by the canceling site (Drain or SetDown).
	pass := !ds.canceled && n.passLocked(ds.msg)
	n.mu.Unlock()
	if pass {
		ds.wire(ds.msg)
	}
}

// toInbox is an Endpoint's wire: msg goes to the inbox of the endpoint it is
// addressed to, and nowhere if there is none.
func (n *Network) toInbox(msg Message) {
	n.mu.Lock()
	dst := n.endpoints[msg.To]
	n.mu.Unlock()
	if dst != nil {
		n.Deliver(dst.inbox, msg)
	}
}

// Deliver is the far end of a wire: it places msg in inbox, counted as
// Delivered, or drops it as DroppedOverflow when inbox is full.
func (n *Network) Deliver(inbox chan<- Message, msg Message) {
	n.mu.Lock()
	select {
	case inbox <- msg:
		n.stats.Delivered++
		n.stats.DeliveredBytes += int64(len(msg.Payload))
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
