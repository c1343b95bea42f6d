package replica

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/memnet"
	"prognosticator/internal/raft"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/vclock"
	"prognosticator/internal/wal"
)

func encodeForTest(reqs []engine.Request) ([]byte, error) {
	return sequencer.EncodeBatchID("", reqs)
}

func committedForTest(idx uint64, cmd []byte) raft.Committed {
	return raft.Committed{Index: idx, Term: 1, Cmd: cmd}
}

func testRegistry(t testing.TB) *engine.Registry {
	t.Helper()
	schema := lang.NewSchema(lang.TableSpec{Name: "ACC", KeyArity: 1})
	deposit := &lang.Program{
		Name:   "deposit",
		Params: []lang.Param{lang.IntParam("k", 0, 99), lang.IntParam("amt", 1, 100)},
		Body: []lang.Stmt{
			lang.GetS("a", "ACC", lang.P("k")),
			lang.SetF("a", "bal", lang.Add(lang.Fld(lang.L("a"), "bal"), lang.P("amt"))),
			lang.PutS("ACC", lang.Key(lang.P("k")), lang.L("a")),
		},
	}
	reg, err := engine.NewRegistry(schema, deposit)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func clusterConfig(t testing.TB, replicas int, workersOf func(i string) int) ClusterConfig {
	reg := testRegistry(t)
	return ClusterConfig{
		Replicas: replicas,
		Seed:     42,
		NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
			w := 2
			if workersOf != nil {
				w = workersOf(id)
			}
			return engine.New(reg, st, engine.Config{Workers: w}), nil
		},
	}
}

func deposit(k, amt int64) struct {
	TxName string
	Inputs map[string]value.Value
} {
	return struct {
		TxName string
		Inputs map[string]value.Value
	}{TxName: "deposit", Inputs: map[string]value.Value{
		"k": value.Int(k), "amt": value.Int(amt),
	}}
}

func TestClusterConvergesAcrossReplicas(t *testing.T) {
	// Replicas run with DIFFERENT worker counts: the determinism property
	// must still make all state hashes identical after every batch.
	workers := map[string]int{"replica-0": 1, "replica-1": 4, "replica-2": 8}
	c, err := NewCluster(clusterConfig(t, 3, func(id string) int { return workers[id] }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for b := 0; b < 5; b++ {
		var reqs []struct {
			TxName string
			Inputs map[string]value.Value
		}
		for i := 0; i < 20; i++ {
			reqs = append(reqs, deposit(int64((b*7+i)%50), int64(1+i%9)))
		}
		if err := c.SubmitBatch(reqs, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if !c.Converged() {
			t.Fatalf("replicas diverged after batch %d: %v", b, c.StateHashes())
		}
	}
	for i := 0; i < c.Size(); i++ {
		if r := c.ReplicaAt(i); r.Batches() != 5 {
			t.Fatalf("replica %s applied %d batches", r.ID, r.Batches())
		}
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
}

func TestClusterAppliesEffects(t *testing.T) {
	c, err := NewCluster(clusterConfig(t, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.SubmitBatch([]struct {
		TxName string
		Inputs map[string]value.Value
	}{deposit(7, 10), deposit(7, 5)}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		st := c.ReplicaAt(i).st
		rec, ok := st.Get(st.Epoch(), value.NewKey("ACC", value.Int(7)))
		if !ok {
			t.Fatalf("replica %d: ACC/7 missing", i)
		}
		if f, _ := rec.Field("bal"); f.MustInt() != 15 {
			t.Fatalf("replica %d: bal = %v", i, f)
		}
	}
}

// journalBatches applies cmds at raft indices 1.. through a replica whose
// journal is dir, appending each to the journal first as raft does, and
// returns the replica and its state hash after each batch (hashes[i] =
// state after batch i+1).
func journalBatches(t *testing.T, dir string, cmds [][]byte) (*Replica, []uint64) {
	t.Helper()
	fs, err := raft.OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	rep := New("r0", engine.New(testRegistry(t), st, engine.Config{Workers: 2}), st)
	rep.journal = fs
	var hashes []uint64
	for i, cmd := range cmds {
		idx := uint64(i + 1)
		if err := fs.Append(idx, []raft.Entry{{Term: 1, Cmd: cmd}}); err != nil {
			t.Fatal(err)
		}
		if err := rep.applyOne(committedForTest(idx, cmd)); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, rep.StateHash())
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, hashes
}

// depositBatches encodes n batches of k deposits each, deterministic in
// (n, k, stride).
func depositBatches(t *testing.T, n, k, stride int) [][]byte {
	t.Helper()
	var cmds [][]byte
	for b := 0; b < n; b++ {
		var reqs []engine.Request
		for i := 0; i < k; i++ {
			reqs = append(reqs, engine.Request{TxName: "deposit",
				Inputs: map[string]value.Value{
					"k": value.Int(int64((b*stride + i) % 20)), "amt": value.Int(int64(1 + i)),
				}})
		}
		data, err := encodeForTest(reqs)
		if err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, data)
	}
	return cmds
}

func TestWALRecoveryRebuildsState(t *testing.T) {
	dir := t.TempDir()
	_, hashes := journalBatches(t, dir, depositBatches(t, 4, 10, 1))

	// Crash-recover: replay the journal into a fresh store.
	st2 := store.New()
	rec, err := RecoverWithSnapshot(dir, "", engine.New(testRegistry(t), st2, engine.Config{Workers: 8}), st2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Batches != 4 || rec.LastIndex != 4 || rec.FromSnapshot {
		t.Fatalf("recovered %+v, want 4 batches through index 4 without a snapshot", rec)
	}
	if rec.Journal.Truncated {
		t.Fatal("clean journal reported as truncated")
	}
	if got := st2.StateHash(st2.Epoch()); got != hashes[3] {
		t.Fatalf("recovered state hash %x != original %x", got, hashes[3])
	}
}

// TestRecoverTruncatedTail: a crash mid-append leaves a torn final record,
// here the last applied hint. Recovery must replay up to the previous hint,
// report the loss, and raft's storage must truncate the journal when it
// opens it, so new appends extend a clean prefix.
func TestRecoverTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	_, hashes := journalBatches(t, dir, depositBatches(t, 5, 8, 3))

	segs, err := wal.SegmentPaths(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	st := store.New()
	rec, err := RecoverWithSnapshot(dir, "", engine.New(testRegistry(t), st, engine.Config{Workers: 4}), st)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Batches != 4 || rec.LastIndex != 4 {
		t.Fatalf("replayed %d batches through %d after a torn tail, want 4 through 4", rec.Batches, rec.LastIndex)
	}
	if !rec.Journal.Truncated || rec.Journal.LostBytes <= 0 {
		t.Fatalf("loss not reported: %+v", rec.Journal)
	}
	if got := st.StateHash(st.Epoch()); got != hashes[3] {
		t.Fatalf("recovered state %x != state after 4 intact batches %x", got, hashes[3])
	}

	// Opening the journal repairs it; it then takes appends and verifies
	// clean.
	fs, err := raft.OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveApplied(5); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := wal.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated {
		t.Fatalf("journal still corrupt after repair: %+v", stats)
	}
}

// TestRecoverBitFlippedTail: a flipped bit in the last record fails its
// checksum; recovery replays only what the records before it vouch for.
func TestRecoverBitFlippedTail(t *testing.T) {
	dir := t.TempDir()
	_, hashes := journalBatches(t, dir, depositBatches(t, 5, 8, 3))

	segs, err := wal.SegmentPaths(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st := store.New()
	rec, err := RecoverWithSnapshot(dir, "", engine.New(testRegistry(t), st, engine.Config{Workers: 4}), st)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Batches != 4 {
		t.Fatalf("replayed %d batches after bit flip, want 4", rec.Batches)
	}
	if !rec.Journal.Truncated {
		t.Fatalf("corruption not reported: %+v", rec.Journal)
	}
	if got := st.StateHash(st.Epoch()); got != hashes[3] {
		t.Fatalf("recovered state %x != state after 4 intact batches %x", got, hashes[3])
	}
}

// TestApplyDeduplicatesBatchID: the same idempotency ID committed at two raft
// indices executes once; recovery replays both journal entries, skips the
// second again, and rebuilds the dedup table.
func TestApplyDeduplicatesBatchID(t *testing.T) {
	reqs := []engine.Request{{TxName: "deposit",
		Inputs: map[string]value.Value{"k": value.Int(1), "amt": value.Int(10)}}}
	data, err := sequencer.EncodeBatchID("batch-A", reqs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// The duplicate (resubmitted after an ambiguous outcome) commits again at
	// index 2: it must be skipped, not double-deposited.
	rep, hashes := journalBatches(t, dir, [][]byte{data, data})
	if rep.Batches() != 1 || rep.Deduped() != 1 {
		t.Fatalf("batches=%d deduped=%d, want 1/1", rep.Batches(), rep.Deduped())
	}
	if rep.LastApplied() != 2 {
		t.Fatalf("lastApplied=%d, want 2 (dup advances the watermark)", rep.LastApplied())
	}
	if hashes[1] != hashes[0] {
		t.Fatal("duplicate batch changed state")
	}

	st2 := store.New()
	r2 := New("recovery", engine.New(testRegistry(t), st2, engine.Config{Workers: 2}), st2)
	rec, err := r2.recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Batches != 1 || rec.LastIndex != 2 {
		t.Fatalf("recovered %d batches through %d, want 1 through 2", rec.Batches, rec.LastIndex)
	}
	if idx, ok := r2.sessions["batch-A"].Applied[0]; !ok || idx != 1 {
		t.Fatalf("dedup table not rebuilt: %v", r2.sessions)
	}
	if got := st2.StateHash(st2.Epoch()); got != hashes[0] {
		t.Fatalf("recovered state %x != original %x", got, hashes[0])
	}
}

// TestClusterCrashRestartCatchUp: crash a follower mid-workload, keep
// submitting, restart it, and require it to recover its journal prefix and
// catch up through Raft to full convergence.
func TestClusterCrashRestartCatchUp(t *testing.T) {
	cfg := clusterConfig(t, 3, nil)
	cfg.DataDir = t.TempDir()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	submit := func(n int) {
		t.Helper()
		for b := 0; b < n; b++ {
			var reqs []struct {
				TxName string
				Inputs map[string]value.Value
			}
			for i := 0; i < 10; i++ {
				reqs = append(reqs, deposit(int64(i%12), int64(1+i)))
			}
			if err := c.SubmitBatch(reqs, 15*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}

	submit(3)
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Crash a follower so the remaining pair keeps committing.
	victim := (li + 1) % c.Size()
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if !c.IsDown(victim) || len(c.DownReplicas()) != 1 {
		t.Fatal("down bookkeeping wrong after crash")
	}
	submit(3)

	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Fatalf("restarted replica diverged: %v", c.StateHashes())
	}
	rep := c.ReplicaAt(victim)
	if rep.Batches() != 6 {
		t.Fatalf("restarted replica reflects %d batches, want 6", rep.Batches())
	}
	// Raft re-delivered the recovered prefix; the replica must have skipped it.
	if rep.Redelivered() == 0 {
		t.Fatal("expected redelivered entries to be skipped after restart")
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
}

func TestClusterRejectsMissingFactory(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Replicas: 3}); err == nil {
		t.Fatal("missing factory must error")
	}
}

// TestNewClusterFailureReleasesMembers: when building one member fails, the
// members built before it are torn down — no TCP endpoint left accepting,
// no journal left open — and the same data directory boots
// a working cluster straight after.
func TestNewClusterFailureReleasesMembers(t *testing.T) {
	cfg := clusterConfig(t, 3, nil)
	cfg.TCP = true
	cfg.DataDir = t.TempDir()
	build := cfg.NewExecutor
	cfg.NewExecutor = func(id string, st *store.Store) (engine.Executor, error) {
		if id == "replica-2" {
			return nil, errors.New("no executor")
		}
		return build(id, st)
	}
	openFiles := func() int {
		fds, _ := os.ReadDir("/proc/self/fd") // nil where there is no /proc
		return len(fds)
	}
	goroutines, files := runtime.NumGoroutine(), openFiles()
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("NewCluster succeeded with a failing factory")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the failed NewCluster, %d before", n, goroutines)
	}
	if n := openFiles(); n > files {
		t.Errorf("%d open files after the failed NewCluster, %d before", n, files)
	}
	cfg.NewExecutor = build
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.SubmitBatch([]Request{deposit(1, 1)}, 20*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestStopBeforeStart: a raft node and a replica stopped before they were
// started return at once on both clocks — on a Sim without a single gate.
func TestStopBeforeStart(t *testing.T) {
	stop := func(clk vclock.Clock) {
		raft.NewNode("n0", []string{"n0"}, memnet.NewWithClock(1, clk), raft.Config{Clock: clk}, 1).Stop()
		rep := New("r0", nil, store.New())
		rep.clk = clk
		rep.Stop()
	}
	t.Run("wall", func(t *testing.T) { stop(vclock.Wall) })
	t.Run("sim", func(t *testing.T) {
		sim := vclock.NewSim(1)
		if err := sim.Run(func() { stop(sim.Clock()) }); err != nil {
			t.Fatal(err)
		}
		if got := sim.Picks(); got != 1 {
			t.Errorf("%d scheduling decisions, want 1 (the root actor's start)", got)
		}
	})
}

// TestClusterSurvivesLeaderCrash: killing the current leader mid-run must
// not lose convergence — the surviving replicas elect a new leader and keep
// applying identical batches.
func TestClusterSurvivesLeaderCrash(t *testing.T) {
	c, err := NewCluster(clusterConfig(t, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.SubmitBatch([]struct {
		TxName string
		Inputs map[string]value.Value
	}{deposit(1, 5), deposit(2, 5)}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Crash the leader (both its raft node and replica).
	c.NodeAt(li).Stop()
	c.ReplicaAt(li).Stop()
	// The survivors must still accept and apply batches.
	survivors := []int{}
	for i := 0; i < c.Size(); i++ {
		if i != li {
			survivors = append(survivors, i)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	var idx uint64
	for {
		var leaderIdx = -1
		for _, i := range survivors {
			if role, _ := c.NodeAt(i).Status(); role == raft.Leader {
				leaderIdx = i
			}
		}
		if leaderIdx >= 0 {
			var err error
			idx, err = sequencer.Propose(c.NodeAt(leaderIdx), sequencer.Batch{Requests: []engine.Request{
				{TxName: "deposit", Inputs: map[string]value.Value{"k": value.Int(3), "amt": value.Int(7)}},
			}})
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no new leader accepted the batch")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		done := true
		for _, i := range survivors {
			if c.ReplicaAt(i).LastApplied() < idx {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	h0 := c.ReplicaAt(survivors[0]).StateHash()
	h1 := c.ReplicaAt(survivors[1]).StateHash()
	if h0 != h1 {
		t.Fatalf("survivors diverged after leader crash: %x vs %x", h0, h1)
	}
	if c.ReplicaAt(survivors[0]).LastApplied() < idx {
		t.Fatal("post-crash batch never applied")
	}
}

// TestClusterOverTCP: the same convergence property with consensus running
// over real loopback sockets.
func TestClusterOverTCP(t *testing.T) {
	cfg := clusterConfig(t, 3, nil)
	cfg.TCP = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for b := 0; b < 3; b++ {
		var reqs []struct {
			TxName string
			Inputs map[string]value.Value
		}
		for i := 0; i < 15; i++ {
			reqs = append(reqs, deposit(int64(i%10), int64(1+b)))
		}
		if err := c.SubmitBatch(reqs, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		if !c.Converged() {
			t.Fatalf("TCP cluster diverged after batch %d", b)
		}
	}
	if len(c.endpoints) != 3 {
		t.Fatalf("endpoints = %d", len(c.endpoints))
	}
	// The frames passed the cluster's network, which counted them.
	if st := c.Net.Stats(); st.Delivered == 0 || st.DeliveredBytes == 0 {
		t.Fatalf("net stats over TCP = %+v, want deliveries counted", st)
	}
}
