package replica

import (
	"fmt"
	"testing"
	"time"

	"prognosticator/internal/flowctl"
)

// JournalSyncs returns how many fsyncs node i's journal has issued.
func (c *Cluster) JournalSyncs(i int) int64 { return c.replica(i).journal.Syncs() }

// WaitSnapshot blocks until node i's raft log has been compacted at or above
// minIndex — the handshake a test uses to know the replica's snapshot both
// exists on disk and has truncated the consensus log.
func (c *Cluster) WaitSnapshot(i int, minIndex uint64, within time.Duration) error {
	dl := flowctl.AfterClock(c.clk, within)
	bo := c.flow.NewBackoff()
	for {
		if got := c.node(i).SnapshotIndex(); got >= minIndex {
			return nil
		}
		if err := bo.Sleep(dl); err != nil {
			return fmt.Errorf("replica: %s not compacted to %d within %v (at %d): %w",
				c.ids[i], minIndex, within, c.node(i).SnapshotIndex(), err)
		}
	}
}

// snapshotBytes returns the snapshot r would take at its apply position.
func (r *Replica) snapshotBytes(t testing.TB) []byte {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := r.encodeLocked()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
