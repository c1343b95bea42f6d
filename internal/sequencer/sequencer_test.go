package sequencer

import (
	"errors"
	"prognosticator/internal/vclock"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/memnet"
	"prognosticator/internal/raft"
	"prognosticator/internal/value"
)

func TestBatchCodecRoundTrip(t *testing.T) {
	reqs := []engine.Request{
		{TxName: "a", Inputs: map[string]value.Value{"x": value.Int(1)}},
		{TxName: "b", Inputs: map[string]value.Value{
			"s": value.Str("hello"), "l": value.List(value.Int(1), value.Int(2)),
		}},
	}
	data, err := EncodeBatchID("", reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatch(raft.Committed{Index: 3, Cmd: data})
	if err != nil {
		t.Fatal(err)
	}
	back := b.Requests
	if len(back) != 2 {
		t.Fatalf("decoded %d requests", len(back))
	}
	// Sequence numbers derive from the raft index.
	if back[0].Seq != 3*seqStride || back[1].Seq != 3*seqStride+1 {
		t.Fatalf("seqs = %d, %d", back[0].Seq, back[1].Seq)
	}
	if back[0].TxName != "a" || !back[0].Inputs["x"].Equal(value.Int(1)) {
		t.Fatalf("request 0 = %+v", back[0])
	}
	if !back[1].Inputs["l"].Equal(value.List(value.Int(1), value.Int(2))) {
		t.Fatalf("request 1 inputs = %+v", back[1].Inputs)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeBatch(raft.Committed{Index: 1, Cmd: []byte("{bad")}); err == nil {
		t.Fatal("malformed batch must error")
	}
}

// TestEncodeRejectsOverlongBatch pins where the seqStride bound is enforced:
// at encode time, before anything reaches raft. A batch that only DecodeBatch
// rejected would already be committed, and its decode error would stop every
// replica's apply loop. Zero-value requests suffice: the bound is checked
// before marshalling.
func TestEncodeRejectsOverlongBatch(t *testing.T) {
	big := make([]engine.Request, seqStride+1)
	if _, err := EncodeBatchID("big", big); err == nil {
		t.Fatalf("EncodeBatchID accepted %d requests (max %d)", len(big), seqStride)
	}
	// Propose fails the same way, without touching the node.
	if _, err := Propose(nil, "big", big); err == nil || errors.Is(err, ErrNotLeader) {
		t.Fatalf("Propose of an over-long batch: err = %v, want an encode error", err)
	}
}

func TestSeqOrderingAcrossBatches(t *testing.T) {
	// Seq numbers from a later raft index always exceed those from an
	// earlier one — the global total order the engine relies on.
	e1, _ := EncodeBatchID("", make([]engine.Request, 3))
	e2, _ := EncodeBatchID("", make([]engine.Request, 3))
	b1, err := DecodeBatch(raft.Committed{Index: 1, Cmd: e1})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := DecodeBatch(raft.Committed{Index: 2, Cmd: e2})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := b1.Requests, b2.Requests
	if r1[len(r1)-1].Seq >= r2[0].Seq {
		t.Fatalf("batch seq ranges overlap: %d vs %d", r1[len(r1)-1].Seq, r2[0].Seq)
	}
}

func TestProposeThroughRaft(t *testing.T) {
	net := memnet.New(1)
	node := raft.NewNode("n0", []string{"n0"}, net, raft.Config{
		ElectionTimeoutMin: 20 * time.Millisecond,
		ElectionTimeoutMax: 40 * time.Millisecond,
		HeartbeatInterval:  10 * time.Millisecond,
	}, 1)
	node.Start()
	defer node.Stop()
	defer net.Close()
	// Wait for self-election.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if role, _ := node.Status(); role == raft.Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("single node did not become leader")
		}
		vclock.Wall.Sleep(5 * time.Millisecond)
	}
	idx, err := Propose(node, "b1", []engine.Request{
		{TxName: "tx1", Inputs: map[string]value.Value{"x": value.Int(7)}},
		{TxName: "tx2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The committed entry decodes back to the proposed batch.
	select {
	case c := <-node.Apply():
		if c.Index != idx {
			t.Fatalf("applied index %d, want %d", c.Index, idx)
		}
		b, err := DecodeBatch(c)
		if err != nil {
			t.Fatal(err)
		}
		if reqs := b.Requests; b.ID != "b1" || len(reqs) != 2 || reqs[0].TxName != "tx1" || reqs[1].TxName != "tx2" {
			t.Fatalf("decoded %+v", b)
		}
	case <-vclock.Wall.After(2 * time.Second):
		t.Fatal("batch never committed")
	}
}

func TestProposeNotLeader(t *testing.T) {
	net := memnet.New(2)
	// Two-node cluster where the peer does not exist: n0 can never win an
	// election... it needs 2 votes of 2. It stays follower/candidate.
	node := raft.NewNode("n0", []string{"n0", "ghost"}, net, raft.Config{
		ElectionTimeoutMin: 10 * time.Millisecond,
		ElectionTimeoutMax: 20 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}, 2)
	node.Start()
	defer node.Stop()
	defer net.Close()
	_, err := Propose(node, "b1", []engine.Request{{TxName: "tx"}})
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}
