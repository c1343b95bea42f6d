package replica

import (
	"encoding/binary"
	"fmt"

	"prognosticator/internal/engine"
	"prognosticator/internal/raft"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
	"prognosticator/internal/wal"
)

// --- WAL record envelope ---

// Replica WAL records are framed as an 8-byte little-endian raft index
// followed by the committed batch payload. Persisting the index keeps
// recovered sequence numbers (derived from the index) identical to the
// original execution even when deduplicated batches leave gaps in the
// logged index sequence.
const envelopeHeader = 8

func envelope(idx uint64, cmd []byte) []byte {
	out := make([]byte, envelopeHeader+len(cmd))
	binary.LittleEndian.PutUint64(out[:envelopeHeader], idx)
	copy(out[envelopeHeader:], cmd)
	return out
}

func parseEnvelope(payload []byte) (uint64, []byte, error) {
	if len(payload) < envelopeHeader {
		return 0, nil, fmt.Errorf("replica: wal record too short (%d bytes)", len(payload))
	}
	return binary.LittleEndian.Uint64(payload[:envelopeHeader]), payload[envelopeHeader:], nil
}

// RecoveryReport summarizes a recovery: what was restored and replayed, and
// what, if anything, a corrupted tail cost.
type RecoveryReport struct {
	// Batches is the number of batches the recovered store reflects:
	// snapshot batches plus WAL-suffix batches replayed into the executor.
	Batches int
	// LastIndex is the raft index of the last recovered batch (the resume
	// point: Raft redelivery catches the replica up from here).
	LastIndex uint64
	// FromSnapshot reports whether a snapshot seeded the store; if so
	// SnapshotIndex is its raft index and only WAL records above it were
	// replayed.
	FromSnapshot  bool
	SnapshotIndex uint64
	// Watermark is the recovered dedup low-water mark.
	Watermark uint64
	// AppliedIDs maps recovered batch idempotency IDs to their raft index.
	AppliedIDs map[string]uint64
	// WAL reports the physical repair: whether a torn or corrupted tail was
	// truncated and how many bytes of unreplayable suffix were discarded
	// (those batches are re-fetched through Raft, not lost).
	WAL wal.Stats
}

// Recover rebuilds the store state of a crashed replica by replaying its WAL
// directory through exec. The log is first repaired — truncated at the first
// torn or corrupted record — so the surviving prefix is exactly what is
// replayed and subsequent appends extend a verified-clean log. The report
// says how many batches were replayed, where to resume, and how much the
// corruption (if any) cost.
func Recover(dir string, exec engine.Executor) (RecoveryReport, error) {
	return RecoverWithSnapshot(dir, "", exec, nil)
}

// RecoverWithSnapshot is Recover preferring snapshot + WAL-suffix recovery:
// if snapDir holds a parseable snapshot, the store is restored from it and
// only WAL records ABOVE the snapshot index are replayed through exec —
// recovery work is bounded by the snapshot interval, not the deployment
// lifetime. With no usable snapshot (or snapDir == "") the whole WAL is
// replayed, exactly like Recover.
func RecoverWithSnapshot(walDir, snapDir string, exec engine.Executor, st *store.Store) (RecoveryReport, error) {
	rep := RecoveryReport{AppliedIDs: map[string]uint64{}}
	if snap, err := LoadSnapshotFile(snapDir); err == nil && snap != nil && st != nil {
		RestoreStore(st, snap)
		rep.FromSnapshot = true
		rep.SnapshotIndex = snap.Index
		rep.LastIndex = snap.Index
		rep.Batches = snap.Batches
		rep.Watermark = snap.Watermark
		for id, idx := range snap.AppliedIDs {
			rep.AppliedIDs[id] = idx
		}
	}
	stats, err := wal.Repair(walDir)
	if err != nil {
		return rep, fmt.Errorf("replica: recover repair: %w", err)
	}
	rep.WAL = stats
	err = wal.Replay(walDir, func(payload []byte) error {
		idx, cmd, err := parseEnvelope(payload)
		if err != nil {
			return err
		}
		if rep.FromSnapshot && idx <= rep.SnapshotIndex {
			// Covered by the snapshot (a prefix the compaction had not
			// dropped yet): skip, don't double-apply.
			return nil
		}
		b, err := sequencer.DecodeBatch(raft.Committed{Index: idx, Cmd: cmd})
		if err != nil {
			return err
		}
		if _, err := exec.ExecuteBatch(b.Requests); err != nil {
			return err
		}
		rep.Batches++
		rep.LastIndex = idx
		if b.ID != "" {
			rep.AppliedIDs[b.ID] = idx
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("replica: recover: %w", err)
	}
	return rep, nil
}
