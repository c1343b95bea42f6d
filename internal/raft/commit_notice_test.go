package raft

import (
	"testing"

	"prognosticator/internal/memnet"
)

// take removes and returns everything id's node has sent and not yet had
// carried across.
func (h *handCluster) take(id string) []memnet.Message {
	out := h.wires[id].out
	h.wires[id].out = nil
	return out
}

// carry hands each message to the node it is addressed to.
func (h *handCluster) carry(msgs ...memnet.Message) {
	for _, m := range msgs {
		h.nodes[m.To].handle(m)
	}
}

// delivered drains what n has placed on its apply channel so far.
func delivered(n *Node) []Committed {
	var out []Committed
	for {
		select {
		case c := <-n.Apply():
			out = append(out, c)
		default:
			return out
		}
	}
}

// commitNotices checks that msgs are exactly one commit notice per name in
// to, in that order: an AppendEntries without entries anchored at index 1
// and carrying commit index 1.
func commitNotices(t *testing.T, when string, msgs []memnet.Message, to ...string) {
	t.Helper()
	if len(msgs) != len(to) {
		t.Fatalf("%s: leader sent %d messages %+v, want %d commit notices", when, len(msgs), msgs, len(to))
	}
	for i, m := range msgs {
		ae, ok := decoded(t, m).(AppendEntries)
		if !ok || m.To != to[i] || len(ae.Entries) != 0 || ae.PrevLogIndex != 1 || ae.LeaderCommit != 1 {
			t.Fatalf("%s: message %d to %s is %+v, want an entry-free AppendEntries to %s at index 1 with LeaderCommit 1",
				when, i, m.To, decoded(t, m), to[i])
		}
	}
}

// TestCommitNotice walks one proposal through a three-node cluster by hand.
// The moment a majority holds the entry the leader tells every follower that
// has acknowledged it, with a message that carries no entries; a follower
// whose acknowledgement is still under way is sent nothing more until that
// acknowledgement arrives, and is told then. No tick and no second proposal
// is needed for both followers to deliver, and a notice that is lost is made
// good by the next heartbeat.
func TestCommitNotice(t *testing.T) {
	// proposed returns a cluster whose leader has just sent entry 1 to a and b.
	proposed := func(t *testing.T) (h *handCluster, toA, toB memnet.Message) {
		t.Helper()
		h = newHandCluster(64, "leader", "a", "b")
		h.nodes["leader"].tick() // never started: past its election deadline
		h.pump()
		if role, _ := h.nodes["leader"].Status(); role != Leader {
			t.Fatal("leader lost an election it alone stood in")
		}
		if idx, _, ok := h.nodes["leader"].Propose([]byte("x")); !ok || idx != 1 {
			t.Fatalf("Propose = %d, %v; want index 1 accepted", idx, ok)
		}
		out := h.take("leader")
		if len(out) != 2 || out[0].To != "a" || out[1].To != "b" {
			t.Fatalf("the proposal sent %+v, want one AppendEntries each to a and b", out)
		}
		return h, out[0], out[1]
	}
	wantEntry := func(t *testing.T, who string, n *Node) {
		t.Helper()
		got := delivered(n)
		if len(got) != 1 || got[0].Index != 1 || string(got[0].Cmd) != "x" {
			t.Fatalf("%s delivered %+v, want exactly entry 1", who, got)
		}
	}

	t.Run("acks in turn", func(t *testing.T) {
		h, toA, toB := proposed(t)
		leader, a, b := h.nodes["leader"], h.nodes["a"], h.nodes["b"]
		h.carry(toA, toB)
		h.carry(h.take("a")...) // a's acknowledgement: a majority holds entry 1
		wantEntry(t, "leader", leader)
		notices := h.take("leader")
		commitNotices(t, "after a's ack, b's still to come", notices, "a")
		h.carry(h.take("b")...)
		toBNotice := h.take("leader")
		commitNotices(t, "after b's ack", toBNotice, "b")
		h.carry(notices...)
		h.carry(toBNotice...)
		wantEntry(t, "a", a)
		wantEntry(t, "b", b)
		// The followers' answers to the notices provoke nothing further.
		h.pump()
		if out := h.take("leader"); len(out) != 0 {
			t.Fatalf("leader sent %+v after both followers were told", out)
		}
	})

	t.Run("late ack is told on arrival", func(t *testing.T) {
		h, toA, toB := proposed(t)
		a, b := h.nodes["a"], h.nodes["b"]
		h.carry(toA) // b's copy is still on the wire
		h.carry(h.take("a")...)
		notices := h.take("leader")
		commitNotices(t, "with b's entry in flight", notices, "a") // and no second copy for b
		h.carry(notices...)
		wantEntry(t, "a", a)
		if got := delivered(b); len(got) != 0 {
			t.Fatalf("b delivered %+v before it received anything", got)
		}
		h.carry(toB)
		if got := delivered(b); len(got) != 0 {
			t.Fatalf("b delivered %+v on the entry alone (sent with LeaderCommit 0)", got)
		}
		h.carry(h.take("b")...)
		notices = h.take("leader")
		commitNotices(t, "on b's own ack", notices, "b")
		h.carry(notices...)
		wantEntry(t, "b", b)
	})

	t.Run("lost notice is healed by the tick", func(t *testing.T) {
		h, toA, toB := proposed(t)
		leader, a, b := h.nodes["leader"], h.nodes["a"], h.nodes["b"]
		h.carry(toA, toB)
		h.carry(h.take("a")...)
		h.carry(h.take("b")...)
		commitNotices(t, "after both acks", h.take("leader"), "a", "b") // both dropped
		if got := append(delivered(a), delivered(b)...); len(got) != 0 {
			t.Fatalf("followers delivered %+v with both notices lost", got)
		}
		leader.tick()
		h.pump()
		wantEntry(t, "a", a)
		wantEntry(t, "b", b)
	})
}

// TestFollowerCommitBoundedByMatch holds a follower to Raft's commit rule,
// min(LeaderCommit, index of the last entry the message vouches for): a
// follower with an uncommitted suffix from a deposed leader receives a
// message without entries, anchored below that suffix and carrying a commit
// index beyond it, and must not deliver the stale entries. Bounding by the
// follower's own last index is safe only while every message ships the
// leader's whole suffix, which a commit notice does not.
func TestFollowerCommitBoundedByMatch(t *testing.T) {
	h := newHandCluster(64, "f", "old", "new")
	f := h.nodes["f"]
	h.carry(encoded("old", "f", AppendEntries{
		Term: 1, Leader: "old",
		Entries:      []Entry{{Term: 1, Cmd: []byte("kept")}, {Term: 1, Cmd: []byte("stale-2")}, {Term: 1, Cmd: []byte("stale-3")}},
		LeaderCommit: 1,
	}))
	if got := delivered(f); len(got) != 1 || string(got[0].Cmd) != "kept" {
		t.Fatalf("set-up: follower delivered %+v, want entry 1 only", got)
	}
	// Term 2's leader shares entry 1 and has committed its own entries 2 and
	// 3; all it knows of f is that entry 1 matches.
	h.carry(encoded("new", "f", AppendEntries{
		Term: 2, Leader: "new", PrevLogIndex: 1, PrevLogTerm: 1, LeaderCommit: 3,
	}))
	if got := delivered(f); len(got) != 0 {
		t.Fatalf("follower delivered %+v: entries of term 1 that term 2 never committed", got)
	}
	if got := f.CommitIndex(); got != 1 {
		t.Fatalf("follower commit index %d, want 1", got)
	}
	reply, ok := decoded(t, h.take("f")[1]).(AppendReply)
	if !ok || !reply.Success || reply.MatchIndex != 1 {
		t.Fatalf("follower answered %+v, want success at match index 1", reply)
	}
	// The real entries then arrive and are delivered in place of the stale ones.
	h.carry(encoded("new", "f", AppendEntries{
		Term: 2, Leader: "new", PrevLogIndex: 1, PrevLogTerm: 1,
		Entries:      []Entry{{Term: 2, Cmd: []byte("new-2")}, {Term: 2, Cmd: []byte("new-3")}},
		LeaderCommit: 3,
	}))
	got := delivered(f)
	if len(got) != 2 || string(got[0].Cmd) != "new-2" || string(got[1].Cmd) != "new-3" {
		t.Fatalf("follower delivered %+v, want term 2's entries 2 and 3", got)
	}
}
