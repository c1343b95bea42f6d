// Package sequencer is the wire half of the paper's Client Request
// Dispatcher (§III-A, Fig. 1): the codec that turns a client's batch into a
// consensus command and back, and Propose, which hands one encoded batch to
// a Raft node (internal/raft) so that every replica receives the same
// batches in the same order. The client already submits whole batches
// (replica.Cluster.SubmitBatch), so nothing is buffered here. Sequence
// numbers are derived from the Raft log position, so all replicas assign
// identical sequence numbers without further coordination.
package sequencer

import (
	"encoding/json"
	"errors"
	"fmt"

	"prognosticator/internal/engine"
	"prognosticator/internal/raft"
	"prognosticator/internal/value"
)

// ErrNotLeader is returned by Propose when the Raft node is not the current
// leader; the caller should retry on the hinted node.
var ErrNotLeader = errors.New("sequencer: not leader")

// Batch is the unit of consensus: an ordered list of transaction
// invocations. Request sequence numbers are assigned at decode time from
// the Raft index, so they are identical on every replica. ID, when
// non-empty, is a client-assigned idempotency token: a batch resubmitted
// after an ambiguous failure (leader change mid-submit) carries the same ID
// and is deduplicated at apply time instead of double-executing.
type Batch struct {
	ID       string
	Requests []engine.Request
}

// wire representation.
type wireBatch struct {
	ID       string        `json:"id,omitempty"`
	Requests []wireRequest `json:"reqs"`
}

type wireRequest struct {
	TxName string                 `json:"tx"`
	Inputs map[string]value.Value `json:"in"`
}

// seqStride spaces per-batch sequence numbers; a batch may hold at most
// seqStride requests.
const seqStride = 1 << 20

// EncodeBatchID serializes a batch carrying the given idempotency ID (empty
// disables apply-time deduplication for this batch). A batch of more than
// seqStride requests is rejected here, before it can reach consensus: once
// committed, no replica could decode it and every apply loop would stop.
func EncodeBatchID(id string, reqs []engine.Request) ([]byte, error) {
	if len(reqs) > seqStride {
		return nil, fmt.Errorf("sequencer: encode: batch has %d requests (max %d)", len(reqs), seqStride)
	}
	wb := wireBatch{ID: id, Requests: make([]wireRequest, len(reqs))}
	for i, r := range reqs {
		wb.Requests[i] = wireRequest{TxName: r.TxName, Inputs: r.Inputs}
	}
	data, err := json.Marshal(wb)
	if err != nil {
		return nil, fmt.Errorf("sequencer: encode: %w", err)
	}
	return data, nil
}

// DecodeBatch turns a committed Raft entry back into a batch: the requests,
// with replica-consistent sequence numbers derived from the log index, and
// the idempotency ID the submitter attached (empty when none).
func DecodeBatch(c raft.Committed) (Batch, error) {
	var wb wireBatch
	if err := json.Unmarshal(c.Cmd, &wb); err != nil {
		return Batch{}, fmt.Errorf("sequencer: decode batch at index %d: %w", c.Index, err)
	}
	if len(wb.Requests) > seqStride {
		return Batch{}, fmt.Errorf("sequencer: batch at index %d has %d requests (max %d)",
			c.Index, len(wb.Requests), seqStride)
	}
	b := Batch{ID: wb.ID, Requests: make([]engine.Request, len(wb.Requests))}
	for i, wr := range wb.Requests {
		b.Requests[i] = engine.Request{
			Seq:    c.Index*seqStride + uint64(i),
			TxName: wr.TxName,
			Inputs: wr.Inputs,
		}
	}
	return b, nil
}

// Propose encodes reqs as one batch with the given idempotency ID and hands
// it to node in a single step, returning the Raft index the batch was
// assigned. A caller that must resubmit a batch after an ambiguous outcome
// (the proposal may or may not have committed before leadership moved)
// proposes the same requests with the same ID through the new leader;
// replicas apply the first committed occurrence and skip any later
// duplicate. On ErrNotLeader nothing was proposed — the caller re-routes.
func Propose(node *raft.Node, id string, reqs []engine.Request) (uint64, error) {
	data, err := EncodeBatchID(id, reqs)
	if err != nil {
		return 0, err
	}
	idx, _, ok := node.Propose(data)
	if !ok {
		return 0, fmt.Errorf("%w (hint: %s)", ErrNotLeader, node.LeaderHint())
	}
	return idx, nil
}
