package replica

import (
	"testing"
	"time"

	"prognosticator/internal/vclock"
)

// TestRestartAfterUnappliedInstall: a follower's raft node persists a
// leader's snapshot, but its slow apply loop has not installed it yet when
// the follower crashes. The restarted replica must resume from that
// snapshot: raft counts everything below it as committed and will never
// deliver those entries again, so resuming from the replica's own older
// state would skip them. Runs on a simulated clock, so the interleaving is
// the same on every run.
func TestRestartAfterUnappliedInstall(t *testing.T) {
	const every = 4
	sim := vclock.NewSim(5)
	clk := sim.Clock()
	if err := sim.Run(func() {
		cfg := clusterConfig(t, 3, nil)
		cfg.Clock = clk
		cfg.DataDir = t.TempDir()
		cfg.SnapshotEvery = every
		cfg.QuorumSubmit = true
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		li, err := c.WaitLeader(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		victim := (li + 1) % c.Size()
		c.SetApplyDelay(victim, 400*time.Millisecond)
		submitDeposits(t, c, 0, 3)
		ids := c.IDs()
		others := []string{ids[li], ids[(li+2)%c.Size()]}
		c.Net.Partition([]string{ids[victim]}, others)
		submitDeposits(t, c, 3, 12)
		if err := c.WaitSnapshot(li, 3*every, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		c.Net.Heal()
		for deadline := clk.Now().Add(10 * time.Second); c.NodeAt(victim).SnapshotIndex() < 3*every; {
			if clk.Now().After(deadline) {
				t.Fatal("the victim's raft node never received the leader's snapshot")
			}
			clk.Sleep(time.Millisecond)
		}
		if got := c.ReplicaAt(victim).LastApplied(); got >= 3*every {
			t.Fatalf("the victim applied through %d before the crash: the snapshot is no longer pending", got)
		}
		if err := c.Crash(victim); err != nil {
			t.Fatal(err)
		}
		c.SetApplyDelay(victim, 0)
		if err := c.Restart(victim); err != nil {
			t.Fatal(err)
		}
		submitDeposits(t, c, 15, 2)
		if err := c.WaitCaughtUp(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if !c.Converged() {
			t.Fatalf("restarted replica diverged: %x", c.StateHashes())
		}
		if got := c.ReplicaAt(victim).Batches(); got != 17 {
			t.Fatalf("restarted replica reflects %d batches, want 17", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOneFsyncPerBatch: each node keeps one journal, and with a stable
// leader a batch costs every node exactly one fsync, for the entry raft
// persists; the replica's applied hint rides along unsynced.
func TestOneFsyncPerBatch(t *testing.T) {
	const n = 10
	sim := vclock.NewSim(3)
	if err := sim.Run(func() {
		cfg := clusterConfig(t, 3, nil)
		cfg.Clock = sim.Clock()
		cfg.DataDir = t.TempDir()
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		li, err := c.WaitLeader(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_, term := c.NodeAt(li).Status()
		submitDeposits(t, c, 0, 1) // past the election's vote records
		before := make([]int64, c.Size())
		for i := range before {
			before[i] = c.JournalSyncs(i)
		}
		submitDeposits(t, c, 1, n)
		if err := c.WaitCaughtUp(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if _, now := c.NodeAt(li).Status(); now != term {
			t.Fatalf("leader changed during the run (term %d -> %d)", term, now)
		}
		for i := range before {
			if got := c.JournalSyncs(i) - before[i]; got != n {
				t.Errorf("node %d: %d journal fsyncs for %d batches, want %d", i, got, n, n)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
