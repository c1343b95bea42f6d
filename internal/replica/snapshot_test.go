package replica

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/tpcc"
)

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	// Rows are not held to the input bound: one nests ten times
	// value.MaxDepth deep.
	deep := value.Int(1)
	for i := 0; i < 10*value.MaxDepth; i++ {
		deep = value.Record(map[string]value.Value{"f": deep})
	}
	s := &StoreSnapshot{
		Index:    42,
		Batches:  7,
		Sessions: Sessions{"a": {Low: 3, Applied: map[uint64]uint64{3: 41, 5: 42}}, "b": {Applied: map[uint64]uint64{0: 40}}},
		Pairs: []SnapPair{
			{Key: value.NewKey("ACC", value.Int(2)).Encode(), Val: value.Int(5)},
			{Key: value.NewKey("ACC", value.Int(1)).Encode(), Val: value.Int(9)},
			{Key: value.NewKey("ACC", value.Int(3)).Encode(), Val: deep},
		},
	}
	enc, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	// Encoding must sort pairs so all replicas produce identical bytes.
	if s.Pairs[0].Key > s.Pairs[1].Key {
		t.Fatal("pairs not sorted by EncodeSnapshot")
	}
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != 42 || got.Batches != 7 || !reflect.DeepEqual(got.Sessions, s.Sessions) ||
		len(got.Pairs) != 3 || !got.Pairs[2].Val.Equal(deep) {
		t.Fatalf("round trip lost data: %+v", got)
	}

	// A flipped payload bit must fail the CRC, not half-restore.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0x01
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("corrupted snapshot decoded without error")
	}
	// A truncated file must be rejected too.
	if _, err := DecodeSnapshot(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated snapshot decoded without error")
	}
}

// submitDeposits pushes n single-batch rounds of deposits through the
// cluster, deterministic in b so reference runs replay the same workload.
func submitDeposits(t *testing.T, c *Cluster, start, n int) {
	t.Helper()
	for b := start; b < start+n; b++ {
		var reqs []struct {
			TxName string
			Inputs map[string]value.Value
		}
		for i := 0; i < 8; i++ {
			reqs = append(reqs, deposit(int64((b*5+i)%16), int64(1+(b+i)%7)))
		}
		if err := c.SubmitBatch(reqs, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterSnapshotRecovery is the tentpole acceptance test: a replica
// restarted after >= 3 snapshot intervals must recover from its snapshot +
// WAL suffix, and raft catch-up must NOT replay compacted entries from index
// 1 — the redelivered count stays below one snapshot interval where the old
// replay-from-1 behavior would redeliver the replica's whole history.
func TestClusterSnapshotRecovery(t *testing.T) {
	const every = 4
	cfg := clusterConfig(t, 3, nil)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = every
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// 14 batches = 14 raft entries: snapshots at 4, 8 and 12 (3 intervals).
	submitDeposits(t, c, 0, 14)
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	victim := (li + 1) % c.Size()
	// The victim's own raft log must be compacted at the third snapshot
	// before the crash, or the test would pass trivially via its local log.
	if err := c.WaitSnapshot(victim, 3*every, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicaAt(victim).Snapshots(); got < 3 {
		t.Fatalf("victim took %d snapshots before crash, want >= 3", got)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	submitDeposits(t, c, 14, 2)
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	rec := c.LastRecovery(victim)
	if !rec.FromSnapshot {
		t.Fatalf("restart did not recover from snapshot: %+v", rec)
	}
	if rec.SnapshotIndex < 3*every {
		t.Fatalf("recovered from snapshot at %d, want >= %d", rec.SnapshotIndex, 3*every)
	}
	if rec.LastIndex < rec.SnapshotIndex {
		t.Fatalf("resume point %d below snapshot %d", rec.LastIndex, rec.SnapshotIndex)
	}
	// The decisive assertion: catch-up must not have replayed the compacted
	// prefix. Replay-from-1 would redeliver ~rec.LastIndex entries; with
	// compaction only the WAL suffix above the snapshot can reappear.
	if red := c.ReplicaAt(victim).Redelivered(); red > every {
		t.Fatalf("catch-up replayed compacted entries: redelivered=%d (> interval %d)", red, every)
	}
	if !c.Converged() {
		t.Fatalf("diverged after snapshot recovery: %v", c.StateHashes())
	}

	// Golden check: the recovered state must hash identically to a
	// fault-free, snapshot-free reference run of the same workload.
	ref, err := NewCluster(clusterConfig(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	submitDeposits(t, ref, 0, 16)
	if got, want := c.ReplicaAt(victim).StateHash(), ref.ReplicaAt(0).StateHash(); got != want {
		t.Fatalf("snapshot-recovered state %x != fault-free reference %x", got, want)
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
}

// TestSnapshotsIdenticalAcrossReplicas: a snapshot is a function of the log
// prefix it reflects, dedup table included, so three concurrent submitters
// must leave the bytes every replica hands raft at one index identical, even
// on a replica that applies slowly and so applies batches only after they
// were acknowledged: a dedup table that acknowledgements changed from
// outside the log would differ on that replica.
func TestSnapshotsIdenticalAcrossReplicas(t *testing.T) {
	const submitters, each = 3, 40
	cfg := clusterConfig(t, 3, nil)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = 4
	cfg.QuorumSubmit = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.WaitLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	taken := map[uint64]map[int][]byte{} // by index, each replica's snapshot
	for i := 0; i < c.Size(); i++ {
		c.setCompact(i, func(compact func(uint64, []byte) error) func(uint64, []byte) error {
			return func(index uint64, data []byte) error {
				mu.Lock()
				if taken[index] == nil {
					taken[index] = map[int][]byte{}
				}
				taken[index][i] = data
				mu.Unlock()
				return compact(index, data)
			}
		})
	}
	c.SetApplyDelay(2, 3*time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.SubmitBatch([]Request{deposit(int64(s), 1)}, 20*time.Second); err != nil {
					t.Errorf("submitter %d batch %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := c.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	compared := 0
	for index, byReplica := range taken {
		if len(byReplica) < 2 {
			continue
		}
		compared++
		first := -1
		for i := 0; i < c.Size(); i++ {
			data, ok := byReplica[i]
			switch {
			case !ok:
			case first < 0:
				first = i
			case !bytes.Equal(byReplica[first], data):
				t.Errorf("replica %d's snapshot at %d differs from replica %d's", i, index, first)
			}
		}
	}
	if compared == 0 {
		t.Fatalf("no snapshot index is on two replicas (%d indices)", len(taken))
	}
}

// TestRecoversSnapshotNeverJournaled: a replica's snapshot becomes durable
// only when raft checkpoints it in the journal. A replica whose snapshots
// never got there (the compaction had not run when it crashed) must recover
// by replaying the journal, which still holds every entry those snapshots
// covered, and reach its peers' state. No replica writes a snap directory.
func TestRecoversSnapshotNeverJournaled(t *testing.T) {
	const every = 4
	cfg := clusterConfig(t, 3, nil)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = every
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	k := (li + 1) % c.Size()
	c.setCompact(k, func(func(uint64, []byte) error) func(uint64, []byte) error { return nil })
	submitDeposits(t, c, 0, 3*every)
	if got := c.ReplicaAt(k).Snapshots(); got < 3 {
		t.Fatalf("replica %d took %d snapshots, want >= 3", k, got)
	}
	if got := c.NodeAt(k).SnapshotIndex(); got != 0 {
		t.Fatalf("replica %d's journal holds a snapshot at %d, want none", k, got)
	}
	if err := c.Crash(k); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(k); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if rec := c.LastRecovery(k); rec.FromSnapshot || rec.Batches != 3*every {
		t.Fatalf("replica %d recovered %+v, want %d batches replayed from the journal alone", k, rec, 3*every)
	}
	if !c.Converged() {
		t.Fatalf("replica %d diverged from its peers: %x", k, c.StateHashes())
	}
	for _, id := range c.IDs() {
		if _, err := os.Stat(filepath.Join(cfg.DataDir, id, "snap")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s has a snap directory (%v)", id, err)
		}
	}
}

// TestClusterInstallSnapshotCatchUp exercises the leader->follower snapshot
// path: a follower that crashed BEFORE the cluster's snapshots were taken
// needs entries the leader has compacted away, so catch-up must arrive as an
// InstallSnapshot, not entry replay.
func TestClusterInstallSnapshotCatchUp(t *testing.T) {
	const every = 4
	cfg := clusterConfig(t, 3, nil)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = every
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	submitDeposits(t, c, 0, 2) // victim applies only indices 1-2
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	victim := (li + 1) % c.Size()
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	// Push the survivors far past several snapshot intervals so their logs
	// no longer contain the entries the victim needs.
	submitDeposits(t, c, 2, 12)
	li2, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitSnapshot(li2, 2*every, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if inst := c.ReplicaAt(victim).SnapshotsInstalled(); inst < 1 {
		t.Fatalf("far-behind follower caught up without InstallSnapshot (installed=%d)", inst)
	}
	if !c.Converged() {
		t.Fatalf("diverged after snapshot install: %v", c.StateHashes())
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
}

// TestClusterChunkedInstallSnapshotCrashResume is the chunked-transfer
// acceptance test: with the chunk size forced far below the snapshot size,
// a far-behind follower is crashed WHILE the leader is streaming chunks to
// it. After the second restart the transfer must start over from the
// follower's (empty) cursor, complete, and converge to the leader's state
// hash.
func TestClusterChunkedInstallSnapshotCrashResume(t *testing.T) {
	const every = 4
	cfg := clusterConfig(t, 3, nil)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = every
	cfg.Raft.SnapshotChunkSize = 64 // store snapshots run ~0.5-1 KiB
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	submitDeposits(t, c, 0, 2) // victim applies only indices 1-2
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	victim := (li + 1) % c.Size()
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	// Push the survivors past several snapshot intervals so the victim can
	// only catch up via an InstallSnapshot.
	submitDeposits(t, c, 2, 12)
	li2, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitSnapshot(li2, 2*every, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	totalChunks := func() int64 {
		var n int64
		for i := 0; i < c.Size(); i++ {
			n += c.NodeAt(i).ChunksSent()
		}
		return n
	}
	// Slow the fabric so the multi-chunk transfer is observable, rejoin the
	// victim, and crash it again as soon as chunks are in flight.
	c.Net.SetDelay(1*time.Millisecond, 3*time.Millisecond)
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	started := time.Now()
	for totalChunks() == 0 {
		if time.Since(started) > 5*time.Second {
			t.Fatal("no snapshot chunks sent within 5s of victim rejoin")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	midCrashChunks := totalChunks()

	c.Net.SetDelay(0, 0)
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if inst := c.ReplicaAt(victim).SnapshotsInstalled(); inst < 1 {
		t.Fatalf("victim caught up without InstallSnapshot (installed=%d)", inst)
	}
	// The restarted transfer re-streams from the follower's empty cursor, so
	// more chunks flow after the mid-transfer crash.
	if got := totalChunks(); got <= midCrashChunks {
		t.Fatalf("no chunk traffic after mid-transfer crash (before=%d after=%d)", midCrashChunks, got)
	}
	if !c.Converged() {
		t.Fatalf("diverged after crash-resumed chunked install: %v", c.StateHashes())
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
}

// tpccClusterConfig builds a tiny TPC-C deployment (1 warehouse, trimmed
// rows) whose executor factory repopulates the same initial state on every
// (re)start, as snapshot + WAL recovery requires.
func tpccClusterConfig(t testing.TB, replicas int) ClusterConfig {
	t.Helper()
	wcfg := tpcc.Config{
		Warehouses: 1, Items: 20, CustomersPerDistrict: 5,
		OrderLinesMin: 5, OrderLinesMax: 5,
	}
	schema := tpcc.Schema()
	reg, err := engine.NewRegistry(schema, tpcc.NewOrderProg(wcfg), tpcc.PaymentProg(wcfg), tpcc.DeliveryProg(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	return ClusterConfig{
		Replicas: replicas,
		Seed:     7,
		NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
			tpcc.Populate(st, wcfg)
			return engine.New(reg, st, engine.Config{Workers: 2}), nil
		},
	}
}

// submitTPCC pushes n batches of deterministic newOrder/payment mixes.
func submitTPCC(t *testing.T, c *Cluster, start, n int) {
	t.Helper()
	for b := start; b < start+n; b++ {
		var reqs []struct {
			TxName string
			Inputs map[string]value.Value
		}
		for i := 0; i < 4; i++ {
			k := b*4 + i
			if k%3 == 0 {
				reqs = append(reqs, struct {
					TxName string
					Inputs map[string]value.Value
				}{TxName: "payment", Inputs: map[string]value.Value{
					"wId": value.Int(1), "dId": value.Int(int64(1 + k%10)),
					"cWId": value.Int(1), "cDId": value.Int(int64(1 + k%10)),
					"cId": value.Int(int64(1 + k%5)), "amount": value.Int(int64(1 + k%9)),
				}})
				continue
			}
			ol := func(off int) value.Value { return value.Int(int64(1 + (k+off)%20)) }
			reqs = append(reqs, struct {
				TxName string
				Inputs map[string]value.Value
			}{TxName: "newOrder", Inputs: map[string]value.Value{
				"wId": value.Int(1), "dId": value.Int(int64(1 + k%10)),
				"cId": value.Int(int64(1 + k%5)), "olCnt": value.Int(5),
				"olIds":     value.List(ol(0), ol(3), ol(7), ol(11), ol(13)),
				"olSupplyW": value.List(value.Int(1), value.Int(1), value.Int(1), value.Int(1), value.Int(1)),
				"olQty":     value.List(value.Int(1), value.Int(2), value.Int(3), value.Int(4), value.Int(5)),
			}})
		}
		if err := c.SubmitBatch(reqs, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTPCCSnapshotRecoveryGolden is the snapshot round-trip golden test on
// the TPC-C workload: snapshot -> compact -> crash -> restart must hash
// identically to a fault-free reference run.
func TestTPCCSnapshotRecoveryGolden(t *testing.T) {
	const every = 3
	cfg := tpccClusterConfig(t, 3)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = every
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	submitTPCC(t, c, 0, 10) // snapshots at 3, 6, 9
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	victim := (li + 1) % c.Size()
	if err := c.WaitSnapshot(victim, 3*every, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	submitTPCC(t, c, 10, 2)
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	rec := c.LastRecovery(victim)
	if !rec.FromSnapshot || rec.SnapshotIndex < 3*every {
		t.Fatalf("recovery not snapshot-seeded: %+v", rec)
	}
	if red := c.ReplicaAt(victim).Redelivered(); red > every {
		t.Fatalf("catch-up replayed compacted entries: redelivered=%d", red)
	}
	if !c.Converged() {
		t.Fatalf("diverged: %v", c.StateHashes())
	}

	ref, err := NewCluster(tpccClusterConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	submitTPCC(t, ref, 0, 12)
	if got, want := c.ReplicaAt(victim).StateHash(), ref.ReplicaAt(0).StateHash(); got != want {
		t.Fatalf("snapshot-recovered TPC-C state %x != fault-free reference %x", got, want)
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
}

// TestSnapshotHoldsRowsDeeperThanInputs: delivery puts its carrierId input
// inside an order row, so an input nested value.MaxDepth deep, which the
// sequencer accepts, leaves a row one level deeper. Every replica must still
// snapshot that state, and a replica restarted from the snapshot must hold
// the deep row and reach the state of a run without snapshots.
func TestSnapshotHoldsRowsDeeperThanInputs(t *testing.T) {
	carrier := value.Int(3)
	for i := 0; i < value.MaxDepth; i++ {
		carrier = value.List(carrier)
	}
	deliverDeep := func(c *Cluster) {
		submitTPCC(t, c, 0, 1) // two new orders
		if err := c.SubmitBatch([]Request{{TxName: "delivery", Inputs: map[string]value.Value{
			"wId": value.Int(1), "carrierId": carrier,
		}}}, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	const every = 2
	cfg := tpccClusterConfig(t, 3)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = every
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	deliverDeep(c) // the snapshot at index 2 holds the delivered orders
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	victim := (li + 1) % c.Size()
	if err := c.WaitSnapshot(victim, every, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	submitTPCC(t, c, 1, 1)
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rec := c.LastRecovery(victim); !rec.FromSnapshot || rec.SnapshotIndex < every {
		t.Fatalf("recovery not snapshot-seeded: %+v", rec)
	}
	st := c.ReplicaAt(victim).st
	deepest := 0
	st.ForEach(st.Epoch(), func(_ value.Encoded, v value.Value) { deepest = max(deepest, v.Depth()) })
	if deepest != value.MaxDepth+1 {
		t.Fatalf("deepest restored row nests %d deep, want %d", deepest, value.MaxDepth+1)
	}
	if !c.Converged() {
		t.Fatalf("diverged: %v", c.StateHashes())
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}

	ref, err := NewCluster(tpccClusterConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	deliverDeep(ref)
	submitTPCC(t, ref, 1, 1)
	if got, want := c.ReplicaAt(victim).StateHash(), ref.ReplicaAt(0).StateHash(); got != want {
		t.Fatalf("snapshot-recovered state %x != reference without snapshots %x", got, want)
	}
}
