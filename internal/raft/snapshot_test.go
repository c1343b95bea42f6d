package raft

import (
	"fmt"
	"prognosticator/internal/vclock"
	"testing"
	"time"

	"prognosticator/internal/memnet"
	"prognosticator/internal/wal"
)

func TestFileStorageSaveSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveState(3, "n1"); err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i := 1; i <= 5; i++ {
		entries = append(entries, Entry{Term: 2, Cmd: []byte(fmt.Sprintf("e%d", i))})
	}
	if err := fs.Append(1, entries); err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{Index: 3, Term: 2, Data: []byte("machine-state")}
	if err := fs.SaveSnapshot(snap, entries[3:]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint must have compacted the journal to a single segment.
	paths, err := wal.SegmentPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("journal not compacted: %d segments", len(paths))
	}

	fs2, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs2.Close() }()
	term, voted, gotSnap, log, err := fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if term != 3 || voted != "n1" {
		t.Fatalf("state = (%d, %q), want (3, n1)", term, voted)
	}
	if gotSnap.Index != 3 || gotSnap.Term != 2 || string(gotSnap.Data) != "machine-state" {
		t.Fatalf("snapshot = %+v", gotSnap)
	}
	if len(log) != 2 || string(log[0].Cmd) != "e4" || string(log[1].Cmd) != "e5" {
		t.Fatalf("tail = %+v, want [e4 e5]", log)
	}
}

// TestFileStorageCheckpointSupersedesWithoutDrop models a crash between the
// snapshot checkpoint append and the old-segment drop: replay must read the
// stale records and then the checkpoint that supersedes them, never a mix.
func TestFileStorageCheckpointSupersedesWithoutDrop(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveState(2, "n0"); err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i := 1; i <= 6; i++ {
		entries = append(entries, Entry{Term: 1, Cmd: []byte(fmt.Sprintf("e%d", i))})
	}
	if err := fs.Append(1, entries); err != nil {
		t.Fatal(err)
	}
	// Checkpoint WITHOUT rotating or dropping — exactly the journal a crash
	// mid-SaveSnapshot leaves behind (old records still in front).
	snap := Snapshot{Index: 4, Term: 1, Data: []byte("s")}
	if err := fs.append(storageRecord{Kind: recState, Term: 2, VotedFor: "n0"}); err != nil {
		t.Fatal(err)
	}
	if err := fs.append(storageRecord{Kind: recSnap, Snap: &snap}); err != nil {
		t.Fatal(err)
	}
	if err := fs.append(storageRecord{Kind: recAppend, First: 5, Entries: entries[4:]}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs2.Close() }()
	term, _, gotSnap, log, err := fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if term != 2 || gotSnap.Index != 4 {
		t.Fatalf("load = term %d snap %+v, want term 2 snap index 4", term, gotSnap)
	}
	if len(log) != 2 || string(log[0].Cmd) != "e5" || string(log[1].Cmd) != "e6" {
		t.Fatalf("tail = %+v, want [e5 e6]", log)
	}
}

// waitCommit blocks until n's commit index reaches at least idx.
func waitCommit(t *testing.T, n *Node, idx uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for n.CommitIndex() < idx {
		if !time.Now().Before(deadline) {
			t.Fatalf("commit index %d, want >= %d within %v", n.CommitIndex(), idx, within)
		}
		vclock.Wall.Sleep(5 * time.Millisecond)
	}
}

// drainAtLeast collects apply-channel deliveries until at least min have
// arrived and the channel has stayed idle briefly (so trailing async
// deliveries are included).
func drainAtLeast(t *testing.T, n *Node, min int, within time.Duration) []Committed {
	t.Helper()
	deadline := time.Now().Add(within)
	var out []Committed
	for {
		idle := 50 * time.Millisecond
		if len(out) < min {
			idle = time.Until(deadline)
		}
		select {
		case e := <-n.Apply():
			out = append(out, e)
		case <-vclock.Wall.After(idle):
			if len(out) >= min {
				return out
			}
			t.Fatalf("drained %d deliveries, want >= %d within %v", len(out), min, within)
		}
	}
}

func TestNodeCompactBounds(t *testing.T) {
	c := newCluster(t, 1, 41)
	leader := c.waitLeader(3 * time.Second)
	for i := 0; i < 5; i++ {
		c.proposeAndWait(leader, fmt.Sprintf("cmd-%d", i), 3*time.Second)
	}
	// Compacting above the commit index is refused (no-op): it would discard
	// entries the state machine has not covered yet.
	if err := leader.Compact(leader.CommitIndex()+1, nil); err != nil {
		t.Fatal(err)
	}
	if got := leader.SnapshotIndex(); got != 0 {
		t.Fatalf("compact above commit index took effect: snapshot index %d", got)
	}
	if err := leader.Compact(3, []byte("s3")); err != nil {
		t.Fatal(err)
	}
	if got := leader.SnapshotIndex(); got != 3 {
		t.Fatalf("snapshot index = %d, want 3", got)
	}
	// Compaction is monotone: an older snapshot is a no-op.
	if err := leader.Compact(2, []byte("s2")); err != nil {
		t.Fatal(err)
	}
	if got := leader.SnapshotIndex(); got != 3 {
		t.Fatalf("snapshot index moved backward to %d", got)
	}
	// The log still serves proposals and commits above the snapshot.
	c.proposeAndWait(leader, "after-compact", 3*time.Second)
}

// TestNodeRestartFromSnapshot restarts a compacted node from storage: the
// reloaded node resumes at the snapshot boundary and never re-delivers
// compacted entries on its apply channel.
func TestNodeRestartFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	net := memnet.New(43)
	t.Cleanup(net.Close)
	cfg := Config{
		ElectionTimeoutMin: 50 * time.Millisecond,
		ElectionTimeoutMax: 100 * time.Millisecond,
		HeartbeatInterval:  15 * time.Millisecond,
	}
	fs, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode("solo", []string{"solo"}, net, cfg, 43)
	if err := node.UseStorage(fs); err != nil {
		t.Fatal(err)
	}
	node.Start()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if role, _ := node.Status(); role == Leader {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("no leader within 3s")
		}
		vclock.Wall.Sleep(5 * time.Millisecond)
	}
	for i := 1; i <= 6; i++ {
		if _, _, ok := node.Propose([]byte(fmt.Sprintf("cmd-%d", i))); !ok {
			t.Fatal("propose rejected")
		}
	}
	waitCommit(t, node, 6, 3*time.Second)
	drainAtLeast(t, node, 6, 3*time.Second)
	if err := node.Compact(4, []byte("state@4")); err != nil {
		t.Fatal(err)
	}
	node.Stop()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs2.Close() }()
	node2 := NewNode("solo", []string{"solo"}, net, cfg, 44)
	if err := node2.UseStorage(fs2); err != nil {
		t.Fatal(err)
	}
	if got := node2.SnapshotIndex(); got != 4 {
		t.Fatalf("reloaded snapshot index = %d, want 4", got)
	}
	node2.Start()
	defer node2.Stop()
	deadline = time.Now().Add(3 * time.Second)
	for {
		if role, _ := node2.Status(); role == Leader {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("no leader after restart within 3s")
		}
		vclock.Wall.Sleep(5 * time.Millisecond)
	}
	if _, _, ok := node2.Propose([]byte("post-restart")); !ok {
		t.Fatal("propose rejected after restart")
	}
	waitCommit(t, node2, 7, 3*time.Second)
	seen := drainAtLeast(t, node2, 3, 3*time.Second) // indices 5, 6, 7
	for _, e := range seen {
		if e.Index <= 4 {
			t.Fatalf("compacted entry %d re-delivered after restart", e.Index)
		}
	}
}

// TestLeaderShipsSnapshotToFarBehindFollower is the InstallSnapshot path: a
// follower that missed entries the leader has compacted away must catch up
// via a shipped snapshot, delivered on its apply channel as Snapshot != nil.
func TestLeaderShipsSnapshotToFarBehindFollower(t *testing.T) {
	c := newCluster(t, 3, 47)
	leader := c.waitLeader(3 * time.Second)
	var behindID string
	for _, id := range c.ids {
		if c.nodes[id] != leader {
			behindID = id
			break
		}
	}
	behind := c.nodes[behindID]
	c.net.SetDown(behindID, true)
	live := make([]string, 0, 2)
	for _, id := range c.ids {
		if id != behindID {
			live = append(live, id)
		}
	}
	for i := 0; i < 6; i++ {
		c.proposeAndWait(leader, fmt.Sprintf("cmd-%d", i), 3*time.Second, live...)
	}
	compactAt := leader.CommitIndex()
	if err := leader.Compact(compactAt, []byte("leader-state")); err != nil {
		t.Fatal(err)
	}
	if got := leader.SnapshotIndex(); got != compactAt {
		t.Fatalf("leader snapshot index = %d, want %d", got, compactAt)
	}
	c.net.Drain(behindID)
	c.net.SetDown(behindID, false)

	// Generous deadline: under full-suite load the snapshot resend cadence
	// can need several retries before the follower installs.
	deadline := time.Now().Add(15 * time.Second)
	for behind.SnapshotIndex() < compactAt {
		if !time.Now().Before(deadline) {
			t.Fatalf("follower snapshot index %d, want >= %d", behind.SnapshotIndex(), compactAt)
		}
		vclock.Wall.Sleep(5 * time.Millisecond)
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
		t.Fatal("follower caught up without an InstallSnapshot delivery")
	}
	if install.Index < compactAt || string(install.Snapshot) != "leader-state" {
		t.Fatalf("installed snapshot = index %d data %q", install.Index, install.Snapshot)
	}
	// The follower keeps committing normally after the install.
	c.proposeAndWait(leader, "after-install", 3*time.Second)
}
