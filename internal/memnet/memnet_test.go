package memnet

import (
	"testing"
	"time"

	"prognosticator/internal/vclock"
)

func recvWithin(t *testing.T, e *Endpoint, d time.Duration) (Message, bool) {
	t.Helper()
	select {
	case m := <-e.Inbox():
		return m, true
	case <-vclock.Wall.After(d):
		return Message{}, false
	}
}

func TestBasicDelivery(t *testing.T) {
	n := New(1)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	a.Send("b", []byte("hi"))
	m, ok := recvWithin(t, b, time.Second)
	if !ok || m.From != "a" || m.To != "b" || string(m.Payload) != "hi" {
		t.Fatalf("got %+v, %v", m, ok)
	}
}

func TestEndpointIdentity(t *testing.T) {
	n := New(1)
	if n.Endpoint("x") != n.Endpoint("x") {
		t.Fatal("Endpoint must be idempotent")
	}
	if n.Endpoint("x").Name() != "x" {
		t.Fatal("name mismatch")
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	n := New(1)
	a := n.Endpoint("a")
	a.Send("ghost", []byte("x")) // must not panic or block
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	n := New(2)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	n.Partition([]string{"a"}, []string{"b"})
	a.Send("b", []byte("blocked"))
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("partitioned message delivered")
	}
	n.Heal()
	a.Send("b", []byte("open"))
	if m, ok := recvWithin(t, b, time.Second); !ok || string(m.Payload) != "open" {
		t.Fatal("healed network did not deliver")
	}
}

func TestPartitionWithinGroupFlows(t *testing.T) {
	n := New(3)
	a, b, c := n.Endpoint("a"), n.Endpoint("b"), n.Endpoint("c")
	_ = c
	n.Partition([]string{"a", "b"}, []string{"c"})
	a.Send("b", []byte("peer"))
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("same-group message dropped")
	}
}

func TestFullLoss(t *testing.T) {
	n := New(4)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	n.SetLoss(1.0)
	for i := 0; i < 10; i++ {
		a.Send("b", []byte{byte(i)})
	}
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("message survived 100% loss")
	}
}

func TestDelayedDelivery(t *testing.T) {
	n := New(5)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	n.SetDelay(20*time.Millisecond, 40*time.Millisecond)
	start := time.Now()
	a.Send("b", []byte("slow"))
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("delayed message lost")
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("delivered too fast: %v", elapsed)
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	n := New(6)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	n.Close()
	a.Send("b", []byte("dead"))
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("closed network delivered")
	}
}

func TestStatsDistinguishDropCauses(t *testing.T) {
	n := New(8)
	a, b := n.Endpoint("a"), n.Endpoint("b")

	a.Send("b", []byte{1})
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("delivery failed")
	}

	n.Partition([]string{"a"}, []string{"b"})
	a.Send("b", []byte{2})
	n.Heal()

	n.SetLoss(1.0)
	a.Send("b", []byte{3})
	n.SetLoss(0)

	n.SetDown("b", true)
	a.Send("b", []byte{4})
	n.SetDown("b", false)

	s := n.Stats()
	if s.Delivered != 1 || s.DroppedPartition != 1 || s.DroppedLoss != 1 || s.DroppedDown != 1 {
		t.Fatalf("stats = %+v, want exactly one delivery and one drop per cause", s)
	}
	if s.DroppedOverflow != 0 || s.DroppedClosed != 0 {
		t.Fatalf("unexpected overflow/closed drops: %+v", s)
	}
	if s.OfferedAcrossPartition != 1 {
		t.Fatalf("offered across the partition = %d, want 1", s.OfferedAcrossPartition)
	}

	n.Close()
	a.Send("b", []byte{5})
	if got := n.Stats().DroppedClosed; got != 1 {
		t.Fatalf("DroppedClosed = %d, want 1", got)
	}
}

func TestStatsCountOverflowSeparatelyFromLoss(t *testing.T) {
	n := New(9)
	a := n.Endpoint("a")
	n.Endpoint("b")    // registered, never read: the inbox fills up
	const total = 1100 // inbox capacity is 1024
	for i := 0; i < total; i++ {
		a.Send("b", []byte{byte(i)})
	}
	s := n.Stats()
	if s.Delivered != 1024 {
		t.Fatalf("Delivered = %d, want 1024 (inbox capacity)", s.Delivered)
	}
	if s.DroppedOverflow != total-1024 {
		t.Fatalf("DroppedOverflow = %d, want %d", s.DroppedOverflow, total-1024)
	}
	if s.DroppedLoss != 0 {
		t.Fatalf("overflow drops misattributed to loss: %+v", s)
	}
}

// TestStatsCountDeliveredBytes: DeliveredBytes sums the payloads of the
// delivered messages, and of no message lost, cut off by a partition or
// dropped from a full inbox.
func TestStatsCountDeliveredBytes(t *testing.T) {
	n := New(14)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	a.Send("b", []byte("four"))
	a.Send("b", nil)
	b.Send("a", []byte("sixsix"))
	n.SetLoss(1)
	a.Send("b", []byte("lost"))
	n.SetLoss(0)
	n.Partition([]string{"a"}, []string{"b"})
	a.Send("b", []byte("cut"))
	n.Heal()
	n.Endpoint("full") // registered, never read
	for i := 0; i < 1024; i++ {
		a.Send("full", []byte{1})
	}
	a.Send("full", []byte("overflowing"))
	s := n.Stats()
	if s.Delivered != 3+1024 || s.DeliveredBytes != 10+1024 {
		t.Fatalf("stats = %+v, want %d messages of %d bytes delivered", s, 3+1024, 10+1024)
	}
	if s.DroppedLoss != 1 || s.DroppedPartition != 1 || s.DroppedOverflow != 1 {
		t.Fatalf("stats = %+v, want one loss, one partition and one overflow drop", s)
	}
}

func TestSetDownBlocksBothDirections(t *testing.T) {
	n := New(10)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	n.SetDown("a", true)
	a.Send("b", []byte("from-down"))
	b.Send("a", []byte("to-down"))
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("down node sent")
	}
	if _, ok := recvWithin(t, a, 50*time.Millisecond); ok {
		t.Fatal("down node received")
	}
	if got := n.Stats().DroppedDown; got != 2 {
		t.Fatalf("DroppedDown = %d, want 2", got)
	}
	n.SetDown("a", false)
	a.Send("b", []byte("recovered"))
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("recovered node cannot send")
	}
}

func TestDelayedMessageToDownNodeDropped(t *testing.T) {
	n := New(11)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	n.SetDelay(50*time.Millisecond, 60*time.Millisecond)
	a.Send("b", []byte("in-flight"))
	n.SetDown("b", true)
	if _, ok := recvWithin(t, b, 200*time.Millisecond); ok {
		t.Fatal("in-flight message reached a node that crashed before delivery")
	}
	if got := n.Stats().DroppedDown; got != 1 {
		t.Fatalf("DroppedDown = %d, want 1", got)
	}
}

func TestDrainEmptiesInbox(t *testing.T) {
	n := New(12)
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	for i := 0; i < 5; i++ {
		a.Send("b", []byte{byte(i)})
	}
	if got := n.Drain("b"); got != 5 {
		t.Fatalf("Drain discarded %d, want 5", got)
	}
	if _, ok := recvWithin(t, b, 20*time.Millisecond); ok {
		t.Fatal("message survived drain")
	}
	if got := n.Drain("ghost"); got != 0 {
		t.Fatalf("Drain of unknown endpoint = %d, want 0", got)
	}
}

func TestDelayedMessageRespectsLatePartition(t *testing.T) {
	n := New(7)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	n.SetDelay(50*time.Millisecond, 60*time.Millisecond)
	a.Send("b", []byte("in-flight"))
	n.Partition([]string{"a"}, []string{"b"})
	if _, ok := recvWithin(t, b, 200*time.Millisecond); ok {
		t.Fatal("in-flight message crossed a partition applied before delivery")
	}
}

// Regression: a delayed send used to ride a raw goroutine timer that could
// fire after Drain, leaking a previous life's datagram into a restarted
// node's inbox. Drain must cancel in-flight delayed sends, not just empty the
// inbox.
func TestDrainCancelsInFlightDelayedSends(t *testing.T) {
	n := New(13)
	a, b := n.Endpoint("a"), n.Endpoint("b")
	n.SetDelay(30*time.Millisecond, 40*time.Millisecond)
	a.Send("b", []byte("stale"))
	if got := n.Drain("b"); got != 0 {
		t.Fatalf("Drain discarded %d queued messages, want 0 (message was in flight)", got)
	}
	if _, ok := recvWithin(t, b, 150*time.Millisecond); ok {
		t.Fatal("delayed message leaked past Drain into the next life")
	}
	if got := n.Stats().DroppedCanceled; got != 1 {
		t.Fatalf("DroppedCanceled = %d, want 1", got)
	}
}

// onSim runs body as the root actor of a fresh simulated clock; it runs on
// an actor goroutine, so it reports with t.Error, not t.Fatal.
func onSim(t *testing.T, seed int64, body func(sim *vclock.Sim, n *Network)) {
	t.Helper()
	sim := vclock.NewSim(seed)
	if err := sim.Run(func() { body(sim, NewWithClock(seed, sim.Clock())) }); err != nil {
		t.Fatal(err)
	}
}

// Same cancellation property under the simulated clock: after Drain, pushing
// virtual time far past the delay must deliver nothing, and the delay timer
// itself must be gone (the only fire is the Sleep's own wake).
func TestSimDrainCancelsDelayedSend(t *testing.T) {
	onSim(t, 1, func(sim *vclock.Sim, n *Network) {
		clk := n.Clock()
		a, b := n.Endpoint("a"), n.Endpoint("b")
		n.SetDelay(50*time.Millisecond, 60*time.Millisecond)
		a.Send("b", []byte("in-flight"))
		if got := n.Drain("b"); got != 0 {
			t.Errorf("Drain discarded %d queued messages, want 0", got)
		}
		clk.Sleep(500 * time.Millisecond)
		select {
		case m := <-b.Inbox():
			t.Errorf("canceled delayed message delivered: %+v", m)
		default:
		}
		if s := n.Stats(); s.DroppedCanceled != 1 || s.Delivered != 0 {
			t.Errorf("stats = %+v, want DroppedCanceled 1, Delivered 0", s)
		}
		if got := sim.Advances(); got != 1 {
			t.Errorf("timer fires = %d, want 1 (the canceled delay timer must not fire)", got)
		}
	})
}

// Delayed delivery on the simulated clock: the delay elapses in virtual time
// (no real sleeping), and the enqueue is published, so a receiver parked
// idle on its inbox poll wakes at the delivery instant.
func TestSimDelayedDelivery(t *testing.T) {
	onSim(t, 2, func(_ *vclock.Sim, n *Network) {
		clk := n.Clock()
		a, b := n.Endpoint("a"), n.Endpoint("b")
		n.SetDelay(20*time.Millisecond, 40*time.Millisecond)
		start := clk.Now()
		a.Send("b", []byte("slow"))

		_, m, _ := vclock.Recv[Message, struct{}](clk, nil, b.Inbox(), nil)
		if string(m.Payload) != "slow" {
			t.Errorf("payload = %v", m.Payload)
		}
		elapsed := clk.Since(start)
		if elapsed < 20*time.Millisecond || elapsed > 40*time.Millisecond {
			t.Errorf("virtual delay = %v, want within [20ms, 40ms]", elapsed)
		}
		if got := n.Stats().Delivered; got != 1 {
			t.Errorf("Delivered = %d, want 1", got)
		}
	})
}

// SetDown must discard the crashed node's queued inbox and cancel in-flight
// delayed sends: a crashed process loses its socket buffers, and nothing
// addressed to its previous life may surface later in virtual time.
func TestSimSetDownDiscardsQueuedAndInFlight(t *testing.T) {
	onSim(t, 3, func(sim *vclock.Sim, n *Network) {
		clk := n.Clock()
		a, b := n.Endpoint("a"), n.Endpoint("b")
		a.Send("b", []byte("queued")) // immediate: sits in b's inbox
		n.SetDelay(50*time.Millisecond, 60*time.Millisecond)
		a.Send("b", []byte("in-flight"))
		n.SetDown("b", true)
		clk.Sleep(time.Second)
		select {
		case m := <-b.Inbox():
			t.Errorf("crashed node received %+v", m)
		default:
		}
		s := n.Stats()
		if s.Delivered != 1 || s.DroppedDown != 1 {
			t.Errorf("stats = %+v, want Delivered 1 (queued, then discarded), DroppedDown 1 (the canceled in-flight send)", s)
		}
		if got := sim.Advances(); got != 1 {
			t.Errorf("timer fires = %d, want 1 (the canceled delay timer must not fire)", got)
		}
	})
}

// TestOfferedAcrossPartition: a message counts as offered across a partition
// when one separates two live nodes, whatever then becomes of it, and not
// otherwise.
func TestOfferedAcrossPartition(t *testing.T) {
	n := New(9)
	a := n.Endpoint("a")
	n.Endpoint("b")
	n.Endpoint("c")
	n.Partition([]string{"a", "c"}, []string{"b"})
	a.Send("c", []byte{1}) // same side
	a.Send("b", []byte{2}) // across
	n.SetLoss(1.0)
	a.Send("b", []byte{3}) // across, under loss too
	n.SetLoss(0)
	n.SetDown("b", true)
	a.Send("b", []byte{4}) // to a down node
	n.SetDown("b", false)
	n.Heal()
	a.Send("b", []byte{5}) // healed
	if s := n.Stats(); s.OfferedAcrossPartition != 2 || s.DroppedPartition != 2 || s.DroppedDown != 1 {
		t.Fatalf("stats = %+v, want 2 offered across the partition and 2 dropped by it", s)
	}
}
