// Package sequencer is the wire half of the paper's Client Request
// Dispatcher (§III-A, Fig. 1): the codec that turns a client's batch into a
// consensus command and back, and Propose, which hands one encoded batch to
// a Raft node (internal/raft) so that every replica receives the same
// batches in the same order. The client already submits whole batches
// (replica.Cluster.SubmitBatch), so nothing is buffered here. Sequence
// numbers are derived from the Raft log position, so all replicas assign
// identical sequence numbers without further coordination.
//
// A batch carries the client session, sequence number and low-water mark
// from which every replica decides, from the batch alone, whether it is a
// duplicate (see Batch). It is written in the binary encoding of
// internal/value (see EncodeBatch); every replica decodes every committed
// batch, so this codec sits on the per-batch path of the whole cluster. A
// batch of the first binary format, written before sessions, still decodes;
// a batch written as JSON, before the binary encoding existed, begins with
// '{' and is refused as an unknown format.
package sequencer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"prognosticator/internal/engine"
	"prognosticator/internal/raft"
	"prognosticator/internal/value"
)

// ErrNotLeader is returned by Propose when the Raft node is not the current
// leader; the caller should retry on the hinted node.
var ErrNotLeader = errors.New("sequencer: not leader")

// Batch is the unit of consensus: an ordered list of transaction
// invocations. Request sequence numbers are assigned at decode time from
// the Raft index, so they are identical on every replica.
//
// ID, Seq and Low make a resubmitted batch idempotent (Ongaro, "Consensus:
// Bridging Theory and Practice", §6.3). ID names a client session, Seq is the
// batch's number within it, and Low is the lowest Seq of the session's
// submits still running when this proposal was encoded, counting the batch
// itself. A batch resubmitted after an ambiguous failure (leader change
// mid-submit) carries the same ID and Seq, and replicas execute its first
// committed occurrence only. Every Seq below Low has finished, so no replica
// needs to remember it. An empty ID opts the batch out of deduplication.
type Batch struct {
	ID       string
	Seq, Low uint64
	Requests []engine.Request
}

// seqStride spaces per-batch sequence numbers; a batch may hold at most
// seqStride requests.
const seqStride = 1 << 20

// batchFormat is the first byte of a batch; batchFormatV1, a batch written
// before sessions, is still read as session ID with Seq and Low 0.
const (
	batchFormatV1 = 0x01
	batchFormat   = 0x02
)

// EncodeBatch serializes b. The layout is
//
//	batchFormat | ID | Seq | Low | request count | requests
//	request = tx name | input count | (input name | value)...
//
// with strings length-prefixed, Seq, Low and counts as uvarints, values in
// value.AppendBinary's encoding, and each request's inputs in ascending name
// order, so a batch always encodes to the same bytes. A batch of more than
// seqStride requests, with Low above Seq, or with an input nested deeper
// than value.MaxDepth, is rejected here, before it can reach consensus: once
// committed, no replica could decode it and every apply loop would stop.
func EncodeBatch(bt Batch) ([]byte, error) {
	reqs := bt.Requests
	if len(reqs) > seqStride {
		return nil, fmt.Errorf("sequencer: encode: batch has %d requests (max %d)", len(reqs), seqStride)
	}
	if bt.Low > bt.Seq {
		return nil, fmt.Errorf("sequencer: encode: low %d above seq %d", bt.Low, bt.Seq)
	}
	b := make([]byte, 0, 32+len(bt.ID)+64*len(reqs))
	b = append(b, batchFormat)
	b = value.AppendBytes(b, bt.ID)
	b = binary.AppendUvarint(b, bt.Seq)
	b = binary.AppendUvarint(b, bt.Low)
	b = binary.AppendUvarint(b, uint64(len(reqs)))
	var names []string
	for i, r := range reqs {
		b = value.AppendBytes(b, r.TxName)
		names = names[:0]
		for name := range r.Inputs {
			names = append(names, name)
		}
		slices.Sort(names)
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, name := range names {
			v := r.Inputs[name]
			if v.Depth() > value.MaxDepth {
				return nil, fmt.Errorf("sequencer: encode: request %d input %q: lists and records nested deeper than %d", i, name, value.MaxDepth)
			}
			b = value.AppendBytes(b, name)
			b = v.AppendBinary(b)
		}
	}
	return b, nil
}

// EncodeBatchID encodes reqs as the first batch (Seq 0) of session id.
func EncodeBatchID(id string, reqs []engine.Request) ([]byte, error) {
	return EncodeBatch(Batch{ID: id, Requests: reqs})
}

// DecodeBatch turns a committed Raft entry back into a batch: the requests,
// with replica-consistent sequence numbers derived from the log index, and
// the session, Seq and Low the submitter attached.
func DecodeBatch(c raft.Committed) (Batch, error) {
	b, err := decodeBinary(c.Cmd)
	if err != nil {
		return Batch{}, fmt.Errorf("sequencer: decode batch at index %d: %w", c.Index, err)
	}
	for i := range b.Requests {
		b.Requests[i].Seq = c.Index*seqStride + uint64(i)
	}
	return b, nil
}

// decodeBinary reads what EncodeBatch writes, and a batch of the first
// format, which lacks Seq and Low. A batch names a handful of transactions
// and inputs many times over, so each distinct name is allocated once per
// batch.
func decodeBinary(cmd []byte) (Batch, error) {
	r := value.NewReader(cmd)
	f := r.Byte()
	if f != batchFormat && f != batchFormatV1 {
		r.Fail("batch format %#x", f)
	}
	b := Batch{ID: r.Str()}
	if f == batchFormat {
		if b.Seq, b.Low = r.Uvarint(), r.Uvarint(); b.Low > b.Seq {
			r.Fail("low %d above seq %d", b.Low, b.Seq)
		}
	}
	n := r.Count(2) // a name length and an input count each
	if n > seqStride {
		return Batch{}, fmt.Errorf("batch has %d requests (max %d)", n, seqStride)
	}
	interned := map[string]string{}
	intern := func(s []byte) string {
		if v, ok := interned[string(s)]; ok {
			return v
		}
		v := string(s)
		interned[v] = v
		return v
	}
	reqs := make([]engine.Request, n)
	for i := range reqs {
		reqs[i].TxName = intern(r.Bytes())
		m := r.Count(2) // a name length and a tag each
		if m == 0 {
			continue
		}
		in := make(map[string]value.Value, m)
		prev := ""
		for j := 0; j < m; j++ {
			name := intern(r.Bytes())
			if j > 0 && name <= prev {
				r.Fail("request %d input %q after %q", i, name, prev)
			}
			in[name] = r.Value(value.MaxDepth)
			prev = name
		}
		reqs[i].Inputs = in
	}
	if err := r.End(); err != nil {
		return Batch{}, err
	}
	b.Requests = reqs
	return b, nil
}

// Propose encodes b and hands it to node in a single step, returning the
// Raft index the batch was assigned. A caller that must resubmit a batch
// after an ambiguous outcome (the proposal may or may not have committed
// before leadership moved) proposes it again, with the same ID and Seq and a
// fresh Low, through the new leader; replicas apply the first committed
// occurrence and skip any later duplicate. On ErrNotLeader nothing was
// proposed — the caller re-routes.
func Propose(node *raft.Node, b Batch) (uint64, error) {
	data, err := EncodeBatch(b)
	if err != nil {
		return 0, err
	}
	idx, _, ok := node.Propose(data)
	if !ok {
		return 0, fmt.Errorf("%w (hint: %s)", ErrNotLeader, node.LeaderHint())
	}
	return idx, nil
}
