package replica

import (
	"fmt"

	"prognosticator/internal/engine"
	"prognosticator/internal/raft"
	"prognosticator/internal/store"
	"prognosticator/internal/wal"
)

// RecoveryReport summarizes a recovery: what was restored and replayed, and
// what, if anything, a corrupted journal tail cost.
type RecoveryReport struct {
	// Batches is the number of batches the recovered store reflects:
	// snapshot batches plus journal batches replayed into the executor.
	Batches int
	// LastIndex is the raft index of the last recovered batch (the resume
	// point: Raft redelivery catches the replica up from here).
	LastIndex uint64
	// FromSnapshot reports whether a snapshot seeded the store; if so
	// SnapshotIndex is its raft index and only journal entries above it
	// were replayed.
	FromSnapshot  bool
	SnapshotIndex uint64
	// Journal describes the journal scan: whether a torn or corrupted tail
	// followed the last intact record, and how many bytes it held. Raft's
	// storage truncates it when it opens the journal.
	Journal wal.Stats
}

// RecoverWithSnapshot rebuilds, into st through exec, the state of a
// replica whose journal (its raft FileStorage) is in dir. It reads the
// journal without changing it, and is the same recovery a Cluster member
// runs at boot and on Restart. snapDir is read by nothing: it named a
// directory of snapshot files, which the journal's checkpoint replaced.
func RecoverWithSnapshot(dir, snapDir string, exec engine.Executor, st *store.Store) (RecoveryReport, error) {
	return New("recovery", exec, st).recover(dir)
}

// recover rebuilds r before Start. It restores the journal's snapshot, if
// there is one, then replays the journal's entries above it, up to the
// applied-index hint, through applyOne: the code that applied them live
// makes the same dedup decisions and rebuilds Batches and the dedup table.
// Entries past the hint are left to raft's redelivery. A snapshot the
// replica took whose checkpoint had not landed is not lost: the journal
// still holds the entries it covers.
func (r *Replica) recover(dir string) (RecoveryReport, error) {
	j, err := raft.ReadJournal(dir)
	if err != nil {
		return RecoveryReport{}, fmt.Errorf("replica: recover: %w", err)
	}
	rep := RecoveryReport{Journal: j.Stats}
	if j.Snap.Index > 0 {
		snap, err := DecodeSnapshot(j.Snap.Data)
		if err != nil {
			return rep, fmt.Errorf("replica: recover journal snapshot at %d: %w", j.Snap.Index, err)
		}
		r.restore(snap)
		rep.FromSnapshot, rep.SnapshotIndex = true, snap.Index
	}
	for i, e := range j.Log {
		idx := j.Snap.Index + 1 + uint64(i)
		if idx > j.Applied {
			break
		}
		if idx <= r.lastApplied {
			continue // covered by the snapshot
		}
		if err := r.applyOne(raft.Committed{Index: idx, Term: e.Term, Cmd: e.Cmd}); err != nil {
			return rep, fmt.Errorf("replica: recover: %w", err)
		}
	}
	rep.Batches, rep.LastIndex = r.batches, r.lastApplied
	return rep, nil
}
