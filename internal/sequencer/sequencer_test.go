package sequencer

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"prognosticator/internal/vclock"

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
	if _, err := Propose(nil, Batch{ID: "big", Requests: big}); err == nil || errors.Is(err, ErrNotLeader) {
		t.Fatalf("Propose of an over-long batch: err = %v, want an encode error", err)
	}
	// So is a Low above its Seq, which no running submit can carry.
	if _, err := EncodeBatch(Batch{ID: "s", Seq: 3, Low: 4}); err == nil {
		t.Fatal("encoded a batch whose Low is above its Seq")
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
	idx, err := Propose(node, Batch{ID: "b1", Seq: 9, Low: 4, Requests: []engine.Request{
		{TxName: "tx1", Inputs: map[string]value.Value{"x": value.Int(7)}},
		{TxName: "tx2"},
	}})
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
		if reqs := b.Requests; b.ID != "b1" || b.Seq != 9 || b.Low != 4 || len(reqs) != 2 || reqs[0].TxName != "tx1" || reqs[1].TxName != "tx2" {
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
	_, err := Propose(node, Batch{ID: "b1", Requests: []engine.Request{{TxName: "tx"}}})
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}

// TestBatchLayout pins a batch byte for byte: committed raft entries hold
// this layout. Inputs are written in name order whatever order the map
// yields them in. A batch of the first format, which had no Seq or Low,
// decodes as Seq 0 and Low 0 of its ID's session.
func TestBatchLayout(t *testing.T) {
	reqs := []engine.Request{
		{TxName: "deposit", Inputs: map[string]value.Value{"k": value.Int(1), "amt": value.Int(-2)}},
		{TxName: "audit"},
	}
	got, err := EncodeBatch(Batch{ID: "b-1", Seq: 300, Low: 5, Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	body := "02" + // two requests
		"076465706f736974" + "02" + "03616d74" + "0103" + "016b" + "0102" + // deposit{amt:-2,k:1}
		"0561756469" + "74" + "00" // audit, no inputs
	want := "02" + "03622d31" + "ac02" + "05" + body // format, ID, Seq, Low
	if hex.EncodeToString(got) != want {
		t.Fatalf("batch encodes to %x\nwant             %s", got, want)
	}
	v1, _ := hex.DecodeString("01" + "03622d31" + body)
	b, err := DecodeBatch(raft.Committed{Index: 1, Cmd: v1})
	if err != nil || b.ID != "b-1" || b.Seq != 0 || b.Low != 0 || !sameRequests(b.Requests, reqs) {
		t.Fatalf("first-format batch decoded to %+v, %v", b, err)
	}
	if again, err := EncodeBatchID(b.ID, b.Requests); err != nil || hex.EncodeToString(again) != "02"+"03622d31"+"00"+"00"+body {
		t.Fatalf("first-format batch re-encodes to %x, %v", again, err)
	}
}

// jsonEraBatch was printed by EncodeBatchID at commit aaf8a05, when batches
// were JSON: every value kind, a string that JSON escapes, an invalid value
// and a request without inputs.
const jsonEraBatch = "{\"id\":\"legacy/\\\"id\\\"\",\"reqs\":[{\"tx\":\"newOrder\",\"in\":{\"f\":{\"k\":3},\"items\":{\"k\":4,\"l\":[{\"k\":5,\"r\":{\"id\":{\"k\":1,\"i\":7},\"qty\":{\"k\":1,\"i\":3}}},{\"k\":4},{\"k\":5}]},\"s\":{\"k\":2,\"s\":\"a/b \\\"q\\\" \\u003c\\u0026\\u003e é\\n\"},\"t\":{\"k\":3,\"b\":true},\"w\":{\"k\":1,\"i\":-9223372036854775808}}},{\"tx\":\"audit\",\"in\":null},{\"tx\":\"pay\",\"in\":{\"x\":{\"k\":0}}}]}"

// nestedJSON returns a one-request JSON-era batch whose only input is depth
// lists, one inside the other.
func nestedJSON(depth int) []byte {
	in := strings.Repeat(`{"k":4,"l":[`, depth) + `{"k":1,"i":0}` + strings.Repeat(`]}`, depth)
	return []byte(`{"reqs":[{"tx":"t","in":{"a":` + in + `}}]}`)
}

// TestDecodesJSONEraBatch: only the binary encoding is read, so a JSON batch
// committed before it is refused at its first byte, '{' (0x7b): the batch
// its writer printed, and one nested far past value.MaxDepth, which the JSON
// reader once accepted.
func TestDecodesJSONEraBatch(t *testing.T) {
	for name, cmd := range map[string][]byte{
		"jsonEraBatch":    []byte(jsonEraBatch),
		"nested 500 deep": nestedJSON(500),
	} {
		if b, err := DecodeBatch(raft.Committed{Index: 5, Cmd: cmd}); err == nil || !strings.Contains(err.Error(), "batch format 0x7b") {
			t.Errorf("%s: decoded to %+v, %v", name, b, err)
		}
	}
}

// nestedInput returns a one-request binary batch whose only input is depth
// lists, one inside the other.
func nestedInput(depth int) []byte {
	cmd := []byte{batchFormat, 0, 0, 0, 1, 1, 't', 1, 1, 'a'}
	cmd = append(cmd, bytes.Repeat([]byte{byte(value.KindList), 1}, depth)...)
	return append(cmd, byte(value.KindInt), 0)
}

// TestDecodeRejectsHostileBatch: one input per class of command the binary
// decoder must refuse. testdata/fuzz/FuzzBatchRoundTrip holds each as a
// corpus entry.
func TestDecodeRejectsHostileBatch(t *testing.T) {
	valid := nestedInput(1)
	if _, err := DecodeBatch(raft.Committed{Index: 1, Cmd: valid}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cmd  []byte
	}{
		{"empty", nil},
		{"truncated", valid[:len(valid)-1]},
		{"unknown format", append([]byte{0x03}, valid[1:]...)},
		{"unknown value tag", []byte{batchFormat, 0, 0, 0, 1, 1, 't', 1, 1, 'a', 9}},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"low above seq", []byte{batchFormat, 1, 's', 3, 4, 0}},
		{"request count past end", []byte{batchFormat, 0, 0, 0, 0x80, 0x80, 0x40, 0, 0}},
		{"input count past end", []byte{batchFormat, 0, 0, 0, 1, 1, 't', 0x80, 0x80, 0x40, 1, 'a', 0}},
		{"ID length past end", []byte{batchFormat, 0xff, 0xff, 0x03, 'x'}},
		{"nested past the bound", nestedInput(value.MaxDepth + 1)},
		{"inputs out of order", []byte{batchFormat, 0, 0, 0, 1, 1, 't', 2, 1, 'b', 0, 1, 'a', 0}},
		{"input named twice", []byte{batchFormat, 0, 0, 0, 1, 1, 't', 2, 1, 'a', 0, 1, 'a', 0}},
		{"first format: request count past end", []byte{batchFormatV1, 0, 0x80, 0x80, 0x40, 0, 0}},
		{"first format: inputs out of order", []byte{batchFormatV1, 0, 1, 1, 't', 2, 1, 'b', 0, 1, 'a', 0}},
	}
	for _, c := range cases {
		if b, err := DecodeBatch(raft.Committed{Index: 1, Cmd: c.cmd}); err == nil {
			t.Errorf("%s: %x decoded to %+v", c.name, c.cmd, b)
		}
	}
	if _, err := DecodeBatch(raft.Committed{Index: 1, Cmd: nestedInput(value.MaxDepth)}); err != nil {
		t.Errorf("nested to the bound: %v", err)
	}
	// Over seqStride requests, each of them well-formed.
	big := binary.AppendUvarint([]byte{batchFormat, 0, 0, 0}, seqStride+1)
	big = append(big, make([]byte, 2*(seqStride+1))...)
	if _, err := DecodeBatch(raft.Committed{Index: 1, Cmd: big}); err == nil {
		t.Error("decoded a batch of seqStride+1 requests")
	}
}

// TestDecodeCountCheckedBeforeAllocating: a million requests claimed by a
// nine-byte command are refused before a million-request slice exists.
func TestDecodeCountCheckedBeforeAllocating(t *testing.T) {
	cmd := []byte{batchFormat, 0, 0, 0, 0x80, 0x80, 0x40, 0, 0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBatch(raft.Committed{Index: 1, Cmd: cmd})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; err == nil || got > 4096 {
		t.Fatalf("err %v after allocating %d bytes", err, got)
	}
}

// TestEncodeRejectsTooDeep: a value no replica could decode is refused
// before it reaches raft, like an over-long batch.
func TestEncodeRejectsTooDeep(t *testing.T) {
	v := value.Int(0)
	for i := 0; i <= value.MaxDepth; i++ {
		v = value.List(v)
	}
	if _, err := EncodeBatchID("deep", []engine.Request{{TxName: "t", Inputs: map[string]value.Value{"a": v}}}); err == nil {
		t.Fatal("encoded a value nested past value.MaxDepth")
	}
}
