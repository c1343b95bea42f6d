package tcpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"prognosticator/internal/memnet"
	"prognosticator/internal/raft"
)

func recvWithin(t *testing.T, e *Endpoint, d time.Duration) ([]byte, bool) {
	t.Helper()
	select {
	case m := <-e.Inbox():
		return m.Payload, true
	case <-time.After(d):
		return nil, false
	}
}

// listen binds name on an ephemeral loopback port, closed when the test ends.
func listen(t *testing.T, name string, dir *Directory) *Endpoint {
	t.Helper()
	e, err := Listen(name, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// sendUntilHeard sends msg from e to the endpoint to until it arrives: the
// first sends after to restarted may go to its previous life.
func sendUntilHeard(t *testing.T, e, to *Endpoint, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		e.Send(to.name, []byte(msg))
		if got, ok := recvWithin(t, to, 100*time.Millisecond); ok && string(got) == msg {
			return
		}
	}
	t.Fatalf("%s never heard %q from %s", to.name, msg, e.name)
}

func TestSendReceiveOverTCP(t *testing.T) {
	fabric := memnet.New(1)
	dir := NewDirectoryOn(fabric)
	a, b := listen(t, "a", dir), listen(t, "b", dir)

	a.Send("b", []byte("ping"))
	got, ok := recvWithin(t, b, 2*time.Second)
	if !ok || string(got) != "ping" {
		t.Fatalf("payload = %q, %v", got, ok)
	}
	// Reply flows back over a fresh connection.
	b.Send("a", []byte("pong!"))
	if got, ok = recvWithin(t, a, 2*time.Second); !ok || string(got) != "pong!" {
		t.Fatalf("reply = %q, %v", got, ok)
	}
	if st := fabric.Stats(); st.Delivered != 2 || st.DeliveredBytes != 9 {
		t.Fatalf("stats = %+v, want 2 messages of 9 bytes delivered", st)
	}
}

// TestNetworkLossAndDelay: loss and delay set on the directory's network
// apply over sockets. Full loss drops every send before it reaches a socket,
// delay still delivers, and clearing them restores immediate delivery. The
// network's counters attribute every outcome.
func TestNetworkLossAndDelay(t *testing.T) {
	fabric := memnet.New(7)
	dir := NewDirectoryOn(fabric)
	a, b := listen(t, "a", dir), listen(t, "b", dir)

	// Certain loss: nothing arrives, every send is counted as dropped.
	fabric.SetLoss(1)
	for i := 0; i < 5; i++ {
		a.Send("b", []byte{byte(i)})
	}
	if _, ok := recvWithin(t, b, 100*time.Millisecond); ok {
		t.Fatal("message delivered despite loss probability 1.0")
	}
	if st := fabric.Stats(); st.DroppedLoss != 5 || st.Delivered != 0 {
		t.Fatalf("stats after full loss = %+v, want 5 dropped, 0 delivered", st)
	}

	// Delay only: the message arrives after the injected latency.
	fabric.SetLoss(0)
	fabric.SetDelay(5*time.Millisecond, 10*time.Millisecond)
	start := time.Now()
	a.Send("b", []byte("late"))
	if got, ok := recvWithin(t, b, 2*time.Second); !ok || string(got) != "late" {
		t.Fatalf("delayed message = %q, %v", got, ok)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("delivered in %v, want >= 5ms injected delay", elapsed)
	}

	// Cleared: back to immediate delivery.
	fabric.SetDelay(0, 0)
	a.Send("b", []byte("prompt"))
	if got, ok := recvWithin(t, b, 2*time.Second); !ok || string(got) != "prompt" {
		t.Fatalf("post-clear message = %q, %v", got, ok)
	}
	if st := fabric.Stats(); st.DroppedLoss != 5 || st.Delivered != 2 {
		t.Fatalf("final stats = %+v, want 5 lost, 2 delivered", st)
	}
}

// TestNetworkSeededLossDeterministic pins that the same seed yields the
// same drop pattern, so chaos runs over real sockets replay identically.
func TestNetworkSeededLossDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		fabric := memnet.New(seed)
		dir := NewDirectoryOn(fabric)
		a := listen(t, "a", dir)
		listen(t, "b", dir)
		fabric.SetLoss(0.5)
		var out []bool
		last := int64(0)
		for i := 0; i < 16; i++ {
			a.Send("b", []byte{byte(i)})
			st := fabric.Stats()
			out = append(out, st.DroppedLoss > last)
			last = st.DroppedLoss
		}
		return out
	}
	p1, p2 := pattern(42), pattern(42)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("drop patterns diverge at send %d under the same seed", i)
		}
	}
	diff := false
	for i, v := range pattern(43) {
		if v != p1[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

// TestPartitionAndDownOverTCP: a partition and a down node on the
// directory's network cut socket traffic, and healing restores it.
func TestPartitionAndDownOverTCP(t *testing.T) {
	fabric := memnet.New(3)
	dir := NewDirectoryOn(fabric)
	a, b := listen(t, "a", dir), listen(t, "b", dir)
	fabric.Partition([]string{"a"}, []string{"b"})
	a.Send("b", []byte("cut"))
	fabric.Heal()
	fabric.SetDown("b", true)
	a.Send("b", []byte("down"))
	if got, ok := recvWithin(t, b, 100*time.Millisecond); ok {
		t.Fatalf("%q crossed a partition or reached a down node", got)
	}
	fabric.SetDown("b", false)
	a.Send("b", []byte("healed"))
	if got, ok := recvWithin(t, b, 2*time.Second); !ok || string(got) != "healed" {
		t.Fatalf("after heal: %q, %v", got, ok)
	}
	if st := fabric.Stats(); st.DroppedPartition != 1 || st.DroppedDown != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v, want one partition drop, one down drop, one delivery", st)
	}
}

func TestSendToUnknownPeerDropped(t *testing.T) {
	dir := NewDirectory()
	a, err := Listen("a", "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Send("ghost", []byte("x")) // must not panic or block
}

func TestSendAfterPeerClosedRedials(t *testing.T) {
	dir := NewDirectory()
	a, b1 := listen(t, "a", dir), listen(t, "b", dir)
	a.Send("b", []byte("first"))
	if _, ok := recvWithin(t, b1, 2*time.Second); !ok {
		t.Fatal("first message lost")
	}
	b1.Close()
	// b restarts on a new port; the stale connection fails, and a later
	// send re-dials via the directory.
	sendUntilHeard(t, a, listen(t, "b", dir), "second")
}

// TestRestartedPeerLeaksNoConns restarts a peer again and again, each life
// dialing the endpoint and being dialed by it. Every connection to a dead
// life is closed and forgotten — the accepted one when its reader sees the
// peer go, the dialed one when a write to it fails — so the endpoint holds
// at most two per peer, not two per life.
func TestRestartedPeerLeaksNoConns(t *testing.T) {
	dir := NewDirectory()
	a := listen(t, "a", dir)
	for life := 0; life < 6; life++ {
		b := listen(t, "b", dir)
		sendUntilHeard(t, b, a, fmt.Sprintf("from life %d", life))
		sendUntilHeard(t, a, b, fmt.Sprintf("to life %d", life))
		b.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.OpenConns() > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("endpoint holds %d open connections to one restarted peer, want at most 2", a.OpenConns())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOversizedFrameEndsConnection: a frame part longer than maxField is
// refused before anything is allocated for it, and the connection closes.
func TestOversizedFrameEndsConnection(t *testing.T) {
	a := listen(t, "a", NewDirectory())
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(binary.AppendUvarint(nil, maxField+1)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("read %d bytes from an endpoint sent an oversized frame; want the connection closed", n)
	}
	if _, ok := recvWithin(t, a, 50*time.Millisecond); ok {
		t.Fatal("an oversized frame was delivered")
	}
}

// TestRaftOverTCP runs a real three-node Raft cluster over loopback TCP:
// election, replication, identical apply sequences.
func TestRaftOverTCP(t *testing.T) {
	dir := NewDirectory()
	ids := []string{"r0", "r1", "r2"}
	cfg := raft.Config{
		ElectionTimeoutMin: 100 * time.Millisecond,
		ElectionTimeoutMax: 200 * time.Millisecond,
		HeartbeatInterval:  30 * time.Millisecond,
	}
	eps := map[string]*Endpoint{}
	nodes := map[string]*raft.Node{}
	for i, id := range ids {
		ep, err := Listen(id, "127.0.0.1:0", dir)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
		n := raft.NewNodeWithTransport(id, ids, ep, cfg, int64(i+1))
		nodes[id] = n
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, ep := range eps {
			ep.Close()
		}
	}()

	var leader *raft.Node
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && leader == nil {
		for _, n := range nodes {
			if role, _ := n.Status(); role == raft.Leader {
				leader = n
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader elected over TCP")
	}
	var lastIdx uint64
	for i := 0; i < 5; i++ {
		idx, _, ok := leader.Propose([]byte(fmt.Sprintf("tcp-%d", i)))
		if !ok {
			t.Fatal("propose rejected")
		}
		lastIdx = idx
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range nodes {
			if n.CommitIndex() < lastIdx {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for id, n := range nodes {
		if n.CommitIndex() < lastIdx {
			t.Fatalf("node %s commit index %d < %d", id, n.CommitIndex(), lastIdx)
		}
		for i := 0; i < 5; i++ {
			select {
			case c := <-n.Apply():
				want := fmt.Sprintf("tcp-%d", i)
				if string(c.Cmd) != want {
					t.Fatalf("node %s applied %q at %d, want %q", id, c.Cmd, i, want)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("node %s missing applied entry %d", id, i)
			}
		}
	}
}
