package raft

import (
	"bytes"
	"fmt"
	"prognosticator/internal/vclock"
	"testing"
	"time"

	"prognosticator/internal/memnet"
)

// newChunkCluster is newCluster with a tiny snapshot chunk size, so that any
// non-trivial snapshot takes several chunks.
func newChunkCluster(t *testing.T, n int, seed int64, chunk int) *cluster {
	t.Helper()
	c := &cluster{t: t, net: memnet.New(seed), nodes: map[string]*Node{}}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, fmt.Sprintf("n%d", i))
	}
	for i, id := range c.ids {
		node := NewNode(id, c.ids, c.net, Config{
			ElectionTimeoutMin: 50 * time.Millisecond,
			ElectionTimeoutMax: 100 * time.Millisecond,
			HeartbeatInterval:  15 * time.Millisecond,
			SnapshotChunkSize:  chunk,
		}, seed+int64(i))
		c.nodes[id] = node
		node.Start()
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
		c.net.Close()
	})
	return c
}

// isolateFollower picks a non-leader node, takes it off the network, and
// returns it with the ids of the still-live members.
func isolateFollower(c *cluster, leader *Node) (behind *Node, behindID string, live []string) {
	for _, id := range c.ids {
		if c.nodes[id] != leader && behind == nil {
			behind, behindID = c.nodes[id], id
			continue
		}
		live = append(live, id)
	}
	c.net.SetDown(behindID, true)
	return behind, behindID, live
}

// TestChunkedSnapshotTransfer drives a snapshot much larger than the chunk
// size to a far-behind follower: the transfer must stream in multiple
// offset-addressed chunks and install bit-identical data.
func TestChunkedSnapshotTransfer(t *testing.T) {
	c := newChunkCluster(t, 3, 61, 64)
	leader := c.waitLeader(3 * time.Second)
	behind, behindID, live := isolateFollower(c, leader)
	for i := 0; i < 6; i++ {
		c.proposeAndWait(leader, fmt.Sprintf("cmd-%d", i), 3*time.Second, live...)
	}
	snapData := bytes.Repeat([]byte("chunked-snapshot-state-"), 50) // ~1.1 KiB, ~18 chunks
	compactAt := leader.CommitIndex()
	// Compact on every live node: the rejoining follower may force an
	// election, and whichever node wins must be unable to append-replicate
	// the compacted prefix.
	for _, id := range live {
		if err := c.nodes[id].Compact(compactAt, snapData); err != nil {
			t.Fatal(err)
		}
	}
	c.net.Drain(behindID)
	c.net.SetDown(behindID, false)

	deadline := time.Now().Add(5 * time.Second)
	for behind.SnapshotIndex() < compactAt {
		if !time.Now().Before(deadline) {
			t.Fatalf("follower snapshot index %d, want >= %d", behind.SnapshotIndex(), compactAt)
		}
		vclock.Wall.Sleep(5 * time.Millisecond)
	}
	var sent int64
	for _, id := range live {
		sent += c.nodes[id].ChunksSent()
	}
	if sent < 2 {
		t.Fatalf("ChunksSent = %d, want >= 2 for a snapshot of many chunks", sent)
	}
	var install *Committed
	for _, e := range drainAtLeast(t, behind, 1, 3*time.Second) {
		if e.Snapshot != nil {
			e := e
			install = &e
			break
		}
	}
	if install == nil {
		t.Fatal("follower caught up without a snapshot delivery")
	}
	if install.Index != compactAt || !bytes.Equal(install.Snapshot, snapData) {
		t.Fatalf("installed snapshot: index %d, %d bytes (want index %d, %d bytes, equal content)",
			install.Index, len(install.Snapshot), compactAt, len(snapData))
	}
	// Replication continues with ordinary appends above the snapshot (the
	// rejoin may have forced an election, so re-resolve the leader).
	c.proposeAndWait(c.waitLeader(3*time.Second), "after-chunked-install", 3*time.Second)
}

// handWire is a Transport that only queues what its node sends: the test
// carries the messages across itself, so there are no timers, no elections
// it did not ask for and no retransmissions, and message counts are exact.
// The messages are the encoded bytes a real transport carries, and the
// receiving node decodes them.
type handWire struct {
	from string
	out  []memnet.Message
}

func (w *handWire) Send(to string, msg []byte) {
	w.out = append(w.out, memnet.Message{From: w.from, To: to, Payload: msg})
}

// encoded is rpc from one node to another as a transport carries it.
func encoded(from, to string, rpc message) memnet.Message {
	return memnet.Message{From: from, To: to, Payload: rpc.appendTo(nil)}
}

// decoded is the RPC m carries.
func decoded(t *testing.T, m memnet.Message) message {
	t.Helper()
	rpc, err := decodeMessage(m.Payload)
	if err != nil {
		t.Fatalf("message %+v from %s to %s does not decode: %v", m.Payload, m.From, m.To, err)
	}
	return rpc
}

func (w *handWire) Inbox() <-chan memnet.Message { return nil }

// handCluster is a set of never-started nodes over handWires.
type handCluster struct {
	ids   []string
	nodes map[string]*Node
	wires map[string]*handWire
	cut   map[string]bool
}

func newHandCluster(chunk int, ids ...string) *handCluster {
	h := &handCluster{ids: ids, nodes: map[string]*Node{}, wires: map[string]*handWire{}, cut: map[string]bool{}}
	for i, id := range ids {
		h.wires[id] = &handWire{from: id}
		h.nodes[id] = NewNodeWithTransport(id, ids, h.wires[id], Config{SnapshotChunkSize: chunk}, int64(i))
	}
	return h
}

// pump delivers queued messages, and the replies they provoke, until every
// wire is empty; messages to or from a cut node are dropped.
func (h *handCluster) pump() {
	for moved := true; moved; {
		moved = false
		for _, id := range h.ids {
			out := h.wires[id].out
			h.wires[id].out = nil
			for _, m := range out {
				if h.cut[m.From] || h.cut[m.To] {
					continue
				}
				h.nodes[m.To].handle(m)
				moved = true
			}
		}
	}
}

// TestSnapshotShipsInChunks walks one transfer by hand for snapshot sizes on
// both sides of the chunk size: a snapshot no larger than one chunk — an
// empty one included — is exactly one InstallSnapshotChunk, one byte more is
// exactly two; each time the follower installs the leader's bytes and the
// leader goes back to appending entries above the snapshot.
func TestSnapshotShipsInChunks(t *testing.T) {
	const chunk = 64
	for _, tc := range []struct {
		name   string
		size   int
		chunks int64
	}{
		{"empty", 0, 1},
		{"small", 11, 1},
		{"exactly one chunk", chunk, 1},
		{"one byte over", chunk + 1, 2},
		{"many chunks", 10*chunk + 7, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHandCluster(chunk, "leader", "peer", "behind")
			leader, behind := h.nodes["leader"], h.nodes["behind"]
			h.cut["behind"] = true
			leader.tick() // a node that was never started is past its election deadline
			h.pump()
			if role, _ := leader.Status(); role != Leader {
				t.Fatal("leader lost a two-voter election it alone stood in")
			}
			for i := 0; i < 3; i++ {
				leader.Propose([]byte(fmt.Sprintf("cmd-%d", i)))
			}
			h.pump()
			compactAt := leader.CommitIndex()
			if compactAt != 3 {
				t.Fatalf("commit index %d, want 3", compactAt)
			}
			snapData := bytes.Repeat([]byte("s"), tc.size)
			if err := leader.Compact(compactAt, snapData); err != nil {
				t.Fatal(err)
			}

			h.cut["behind"] = false
			leader.tick() // heartbeat: the follower's next entry is compacted away
			h.pump()
			if got := leader.ChunksSent(); got != tc.chunks {
				t.Fatalf("ChunksSent = %d, want %d for %d bytes in chunks of %d", got, tc.chunks, tc.size, chunk)
			}
			select {
			case got := <-behind.Apply():
				if got.Snapshot == nil || got.Index != compactAt || !bytes.Equal(got.Snapshot, snapData) {
					t.Fatalf("follower's first delivery: index %d, snapshot %v of %d bytes; want the %d-byte snapshot at %d",
						got.Index, got.Snapshot != nil, len(got.Snapshot), tc.size, compactAt)
				}
			default:
				t.Fatal("follower delivered nothing after the transfer")
			}
			if got := behind.SnapshotIndex(); got != compactAt {
				t.Fatalf("follower snapshot index %d, want %d", got, compactAt)
			}

			// The leader resumes ordinary appends above the snapshot.
			idx, _, ok := leader.Propose([]byte("after-install"))
			if !ok {
				t.Fatal("leader refused a proposal after the transfer")
			}
			h.pump() // the leader's commit notice rides the same pump: no tick
			select {
			case got := <-behind.Apply():
				if got.Snapshot != nil || got.Index != idx || string(got.Cmd) != "after-install" {
					t.Fatalf("follower's delivery after the install = %+v, want entry %d", got, idx)
				}
			default:
				t.Fatal("entry proposed after the install never reached the follower")
			}
			if got := leader.ChunksSent(); got != tc.chunks {
				t.Fatalf("ChunksSent rose to %d after the transfer completed", got)
			}
		})
	}
}

// TestChunkedSnapshotTransferUnderLoss runs the chunked transfer over a
// lossy fabric: dropped chunks and dropped acks must be recovered by the
// heartbeat retransmitting the outstanding chunk and by the follower's
// NextOffset cursor rewinding the leader, with the transfer still completing.
func TestChunkedSnapshotTransferUnderLoss(t *testing.T) {
	c := newChunkCluster(t, 3, 71, 64)
	leader := c.waitLeader(3 * time.Second)
	behind, behindID, live := isolateFollower(c, leader)
	for i := 0; i < 6; i++ {
		c.proposeAndWait(leader, fmt.Sprintf("cmd-%d", i), 3*time.Second, live...)
	}
	snapData := bytes.Repeat([]byte("lossy-transfer-"), 60) // ~900 B, ~15 chunks
	compactAt := leader.CommitIndex()
	for _, id := range live {
		if err := c.nodes[id].Compact(compactAt, snapData); err != nil {
			t.Fatal(err)
		}
	}
	c.net.SetLoss(0.20)
	defer c.net.SetLoss(0)
	c.net.Drain(behindID)
	c.net.SetDown(behindID, false)

	deadline := time.Now().Add(10 * time.Second)
	for behind.SnapshotIndex() < compactAt {
		if !time.Now().Before(deadline) {
			t.Fatalf("follower snapshot index %d, want >= %d (transfer stalled under loss)",
				behind.SnapshotIndex(), compactAt)
		}
		vclock.Wall.Sleep(5 * time.Millisecond)
	}
	var install *Committed
	for _, e := range drainAtLeast(t, behind, 1, 5*time.Second) {
		if e.Snapshot != nil {
			e := e
			install = &e
			break
		}
	}
	if install == nil || !bytes.Equal(install.Snapshot, snapData) {
		t.Fatal("snapshot installed under loss does not match the leader's data")
	}
}
