package raft

import (
	"fmt"
	"prognosticator/internal/vclock"
	"testing"
	"time"

	"prognosticator/internal/memnet"
	"prognosticator/internal/wal"
)

func TestFileStorageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveState(3, "n1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(1, []Entry{{Term: 1, Cmd: []byte("a")}, {Term: 2, Cmd: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(3, []Entry{{Term: 3, Cmd: []byte("c")}}); err != nil {
		t.Fatal(err)
	}
	// Overwrite a conflicting suffix.
	if err := fs.Append(2, []Entry{{Term: 3, Cmd: []byte("B")}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveState(4, ""); err != nil {
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
	term, voted, snap, log, err := fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if term != 4 || voted != "" || snap.Index != 0 {
		t.Fatalf("state = %d/%q snap=%+v", term, voted, snap)
	}
	if len(log) != 2 || string(log[0].Cmd) != "a" || string(log[1].Cmd) != "B" {
		t.Fatalf("log = %+v", log)
	}
}

func TestFileStorageFreshIsEmpty(t *testing.T) {
	fs, err := OpenFileStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs.Close() }()
	term, voted, snap, log, err := fs.Load()
	if err != nil || term != 0 || voted != "" || snap.Index != 0 || len(log) != 0 {
		t.Fatalf("fresh storage = %d %q %+v %v %v", term, voted, snap, log, err)
	}
}

// TestJournalAppliedHint: applied hints read back as the newest one, a
// snapshot checkpoint re-records a hint above its index after dropping the
// segment that held it, and a fresh journal reads as empty.
func TestJournalAppliedHint(t *testing.T) {
	dir := t.TempDir()
	if j, err := ReadJournal(dir + "/missing"); err != nil || j.Applied != 0 || len(j.Log) != 0 {
		t.Fatalf("missing journal = %+v, %v", j, err)
	}
	fs, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := []Entry{{Term: 1, Cmd: []byte("a")}, {Term: 1, Cmd: []byte("b")}, {Term: 1, Cmd: []byte("c")}}
	if err := fs.Append(1, entries); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []uint64{1, 3} {
		if err := fs.SaveApplied(idx); err != nil {
			t.Fatal(err)
		}
	}
	if j, err := ReadJournal(dir); err != nil || j.Applied != 3 || len(j.Log) != 3 {
		t.Fatalf("journal = %+v, %v; want hint 3 over 3 entries", j, err)
	}
	if err := fs.SaveSnapshot(Snapshot{Index: 2, Term: 1, Data: []byte("s2")}, entries[2:]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := ReadJournal(dir)
	if err != nil || j.Applied != 3 || j.Snap.Index != 2 || len(j.Log) != 1 || string(j.Log[0].Cmd) != "c" {
		t.Fatalf("after checkpoint: %+v, %v; want hint 3, snapshot 2, entry c", j, err)
	}
}

// TestAppliedHintRacesCheckpoints: the application writes hints while the
// node appends entries and takes snapshot checkpoints that drop the
// segments before them. Whatever the interleaving, the journal keeps the
// newest hint along with the newest snapshot and the entries above it.
func TestAppliedHintRacesCheckpoints(t *testing.T) {
	const n, every = 200, 16
	dir := t.TempDir()
	fs, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(chan uint64, n)
	applied := make(chan error, 1)
	go func() {
		var err error
		for idx := range committed {
			if err == nil {
				err = fs.SaveApplied(idx)
			}
		}
		applied <- err
	}()
	var log []Entry
	for idx := uint64(1); idx <= n; idx++ {
		log = append(log, Entry{Term: 1, Cmd: []byte(fmt.Sprintf("e%d", idx))})
		if err := fs.Append(idx, log[idx-1:]); err != nil {
			t.Fatal(err)
		}
		committed <- idx
		if idx%every == 0 {
			snap := idx - every/2
			if err := fs.SaveSnapshot(Snapshot{Index: snap, Term: 1, Data: []byte("s")}, log[snap:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(committed)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := ReadJournal(dir)
	last := uint64(n/every*every - every/2)
	if err != nil || j.Applied != n || j.Snap.Index != last || uint64(len(j.Log)) != n-last {
		t.Fatalf("journal: hint %d, snapshot %d, %d entries, %v; want hint %d, snapshot %d, %d entries",
			j.Applied, j.Snap.Index, len(j.Log), err, n, last, n-last)
	}
}

// TestCheckpointSpanningSegments: a snapshot larger than a segment spills
// the checkpoint into a second segment; compaction must drop only the
// segments before the checkpoint, not the one holding its snapshot record.
func TestCheckpointSpanningSegments(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(1, []Entry{{Term: 1, Cmd: []byte("a")}, {Term: 1, Cmd: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, wal.DefaultSegmentSize+1)
	if err := fs.SaveSnapshot(Snapshot{Index: 1, Term: 1, Data: big}, []Entry{{Term: 1, Cmd: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := ReadJournal(dir)
	if err != nil || j.Snap.Index != 1 || len(j.Snap.Data) != len(big) || len(j.Log) != 1 {
		t.Fatalf("journal after a two-segment checkpoint: snapshot %d (%d bytes), %d entries, %v",
			j.Snap.Index, len(j.Snap.Data), len(j.Log), err)
	}
}

// TestNodeRestartRetainsLog: a persistent node that crashes and restarts
// keeps its log and term, and the cluster keeps committing.
func TestNodeRestartRetainsLog(t *testing.T) {
	net := memnet.New(77)
	ids := []string{"n0", "n1", "n2"}
	cfg := Config{
		ElectionTimeoutMin: 50 * time.Millisecond,
		ElectionTimeoutMax: 100 * time.Millisecond,
		HeartbeatInterval:  15 * time.Millisecond,
	}
	dirs := map[string]string{}
	nodes := map[string]*Node{}
	start := func(id string, seed int64) *Node {
		n := NewNode(id, ids, net, cfg, seed)
		if dirs[id] == "" {
			dirs[id] = t.TempDir()
		}
		fs, err := OpenFileStorage(dirs[id])
		if err != nil {
			t.Fatal(err)
		}
		if err := n.UseStorage(fs); err != nil {
			t.Fatal(err)
		}
		n.Start()
		nodes[id] = n
		return n
	}
	for i, id := range ids {
		start(id, int64(i+1))
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
		net.Close()
	}()

	waitLeader := func(among ...string) *Node {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, id := range among {
				if role, _ := nodes[id].Status(); role == Leader {
					return nodes[id]
				}
			}
			vclock.Wall.Sleep(5 * time.Millisecond)
		}
		t.Fatal("no leader")
		return nil
	}
	leader := waitLeader(ids...)
	var committed []uint64
	for i := 0; i < 5; i++ {
		idx, _, ok := leader.Propose([]byte(fmt.Sprintf("cmd%d", i)))
		if !ok {
			t.Fatal("propose failed")
		}
		committed = append(committed, idx)
	}
	// Crash a follower and restart it from its storage, once it holds the
	// entries: the leader commits when either follower does.
	var followerID string
	for _, id := range ids {
		if nodes[id] != leader {
			followerID = id
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && nodes[followerID].CommitIndex() < committed[len(committed)-1] {
		vclock.Wall.Sleep(5 * time.Millisecond)
	}
	nodes[followerID].Stop()
	restarted := start(followerID, 99)
	// Its persisted log must contain the committed prefix immediately.
	restarted.mu.Lock()
	logLen := len(restarted.log)
	term := restarted.term
	restarted.mu.Unlock()
	if logLen < int(committed[len(committed)-1]) {
		t.Fatalf("restarted node lost log entries: %d < %d", logLen, committed[len(committed)-1])
	}
	if term == 0 {
		t.Fatal("restarted node lost its term")
	}
	// The cluster continues committing with the restarted member.
	leader = waitLeader(ids...)
	idx, _, ok := leader.Propose([]byte("after-restart"))
	if !ok {
		t.Fatal("propose after restart failed")
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && restarted.CommitIndex() < idx {
		vclock.Wall.Sleep(5 * time.Millisecond)
	}
	if restarted.CommitIndex() < idx {
		t.Fatal("restarted node did not catch up")
	}
}

// TestRestartDoesNotDoubleVote: election safety across restarts — a node
// that voted in term T must not vote for a different candidate in T after
// restarting.
func TestRestartDoesNotDoubleVote(t *testing.T) {
	dir := t.TempDir()
	net := memnet.New(5)
	ids := []string{"a", "b", "c"}
	cfg := Config{
		ElectionTimeoutMin: time.Hour, // no self-driven elections
		ElectionTimeoutMax: 2 * time.Hour,
		HeartbeatInterval:  time.Hour,
	}
	n := NewNode("a", ids, net, cfg, 1)
	fs, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.UseStorage(fs); err != nil {
		t.Fatal(err)
	}
	// Grant a vote to "b" in term 5 via the internal handler.
	n.mu.Lock()
	n.onRequestVote("b", RequestVote{Term: 5, Candidate: "b"})
	n.mu.Unlock()
	_ = fs.Close()

	// Restart and ask for a vote from a different candidate in the SAME term.
	n2 := NewNode("a", ids, net, cfg, 2)
	fs2, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs2.Close() }()
	if err := n2.UseStorage(fs2); err != nil {
		t.Fatal(err)
	}
	n2.mu.Lock()
	if n2.term != 5 || n2.votedFor != "b" {
		n2.mu.Unlock()
		t.Fatalf("restart lost vote state: term=%d voted=%q", n2.term, n2.votedFor)
	}
	n2.onRequestVote("c", RequestVote{Term: 5, Candidate: "c"})
	votedFor := n2.votedFor
	n2.mu.Unlock()
	if votedFor != "b" {
		t.Fatalf("double vote after restart: votedFor=%q", votedFor)
	}
}
