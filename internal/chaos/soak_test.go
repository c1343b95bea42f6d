package chaos

import (
	"bytes"
	"math/rand"
	"os"
	"prognosticator/internal/vclock"
	"strconv"
	"sync"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/replica"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

const soakAccounts = 24

// bankRegistry defines the Jepsen-style bank workload: deposits create
// money, transfers move it between accounts. Transfers touch two rows, so
// batches carry real read-write conflicts for the deterministic engine to
// order.
func bankRegistry(t testing.TB) *engine.Registry {
	t.Helper()
	schema := lang.NewSchema(lang.TableSpec{Name: "ACC", KeyArity: 1})
	deposit := &lang.Program{
		Name:   "deposit",
		Params: []lang.Param{lang.IntParam("k", 0, soakAccounts-1), lang.IntParam("amt", 1, 100)},
		Body: []lang.Stmt{
			lang.GetS("a", "ACC", lang.P("k")),
			lang.SetF("a", "bal", lang.Add(lang.Fld(lang.L("a"), "bal"), lang.P("amt"))),
			lang.PutS("ACC", lang.Key(lang.P("k")), lang.L("a")),
		},
	}
	transfer := &lang.Program{
		Name: "transfer",
		Params: []lang.Param{
			lang.IntParam("src", 0, soakAccounts-1),
			lang.IntParam("dst", 0, soakAccounts-1),
			lang.IntParam("amt", 1, 50),
		},
		Body: []lang.Stmt{
			lang.GetS("s", "ACC", lang.P("src")),
			lang.GetS("d", "ACC", lang.P("dst")),
			lang.SetF("s", "bal", lang.Sub(lang.Fld(lang.L("s"), "bal"), lang.P("amt"))),
			lang.SetF("d", "bal", lang.Add(lang.Fld(lang.L("d"), "bal"), lang.P("amt"))),
			lang.PutS("ACC", lang.Key(lang.P("src")), lang.L("s")),
			lang.PutS("ACC", lang.Key(lang.P("dst")), lang.L("d")),
		},
	}
	audit := &lang.Program{
		Name:   "audit",
		Params: []lang.Param{lang.IntParam("k", 0, soakAccounts-1)},
		Body: []lang.Stmt{
			lang.GetS("a", "ACC", lang.P("k")),
			lang.EmitS("bal", lang.Fld(lang.L("a"), "bal")),
		},
	}
	reg, err := engine.NewRegistry(schema, deposit, transfer, audit)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// soakSeed returns the fault-schedule seed, overridable via CHAOS_SEED so CI
// can sweep seeds and a failing schedule can be replayed locally.
func soakSeed(t testing.TB) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return 1
}

// TestChaosSoak is the Jepsen-lite convergence soak: a bank workload runs
// against a 3-replica cluster while a seeded fault schedule kills and
// restarts replicas mid-batch, tears journal tails, partitions the leader
// away and injects message loss and delay — with snapshotting enabled, so
// recovery paths run over compacted logs. When the dust settles, every
// replica must hash identically to a fault-free reference execution, with
// every submitted batch applied exactly once and dedup memory fully pruned.
func TestChaosSoak(t *testing.T) { soakRun(t, false) }

// TestChaosSoakTCP is the same soak over real loopback TCP sockets: every
// fault runs, the network ones (partition, loss, delay) in the fault filter
// the frames pass before the socket write, while crash/restart faults close
// and re-listen real endpoints.
func TestChaosSoakTCP(t *testing.T) { soakRun(t, true) }

func soakRun(t *testing.T, tcp bool) {
	seed := soakSeed(t)
	steps, batches, txsPerBatch := 24, 48, 16
	if testing.Short() || tcp {
		steps, batches = 12, 24
	}
	t.Logf("chaos soak: seed=%d steps=%d batches=%d tcp=%v", seed, steps, batches, tcp)

	const snapshotEvery = 8
	reg := bankRegistry(t)
	c, err := replica.NewCluster(replica.ClusterConfig{
		Replicas: 3,
		Seed:     seed,
		NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
			return engine.New(reg, st, engine.Config{Workers: 4}), nil
		},
		DataDir:       t.TempDir(),
		TCP:           tcp,
		SnapshotEvery: snapshotEvery,
		// Crashed/lagging replicas catch up through Raft; waiting on a
		// majority keeps the workload moving while a victim is down.
		QuorumSubmit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	in := New(c, Config{Seed: seed, Steps: steps, Logf: t.Logf})
	t.Logf("fault plan: %v", in.Plan())

	// Fault-free reference: the same batches applied exactly once each, in
	// submission order, at synthetic indices. Absolute sequence numbers only
	// fix intra-batch order, so the reference reaches the same state the
	// cluster must converge to.
	refStore := store.New()
	refExec := engine.New(reg, refStore, engine.Config{Workers: 4})

	workRng := rand.New(rand.NewSource(seed * 31))
	makeBatch := func() []struct {
		TxName string
		Inputs map[string]value.Value
	} {
		var reqs []struct {
			TxName string
			Inputs map[string]value.Value
		}
		for i := 0; i < txsPerBatch; i++ {
			if workRng.Intn(3) == 0 {
				reqs = append(reqs, struct {
					TxName string
					Inputs map[string]value.Value
				}{"deposit", map[string]value.Value{
					"k":   value.Int(workRng.Int63n(soakAccounts)),
					"amt": value.Int(1 + workRng.Int63n(100)),
				}})
				continue
			}
			src := workRng.Int63n(soakAccounts)
			dst := workRng.Int63n(soakAccounts)
			if dst == src {
				dst = (src + 1) % soakAccounts
			}
			reqs = append(reqs, struct {
				TxName string
				Inputs map[string]value.Value
			}{"transfer", map[string]value.Value{
				"src": value.Int(src), "dst": value.Int(dst),
				"amt": value.Int(1 + workRng.Int63n(50)),
			}})
		}
		return reqs
	}

	// mirror applies one submitted batch to the reference executor (exactly
	// once, same order, synthetic index).
	refIdx := uint64(0)
	mirror := func(reqs []struct {
		TxName string
		Inputs map[string]value.Value
	}) {
		t.Helper()
		ereqs := make([]engine.Request, len(reqs))
		for i, r := range reqs {
			ereqs[i] = engine.Request{TxName: r.TxName, Inputs: r.Inputs}
		}
		refIdx++
		decoded, err := encodeDecode(refIdx, ereqs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := refExec.ExecuteBatch(decoded); err != nil {
			t.Fatal(err)
		}
	}

	// Interleave: fire the next fault from a goroutine while batches are in
	// flight, so kills land mid-batch. Step serializes internally.
	var wg sync.WaitGroup
	stepIdx := 0
	stepEvery := batches / steps
	if stepEvery < 1 {
		stepEvery = 1
	}
	for b := 0; b < batches; b++ {
		if b%stepEvery == 0 && stepIdx < in.Steps() {
			i := stepIdx
			stepIdx++
			delay := time.Duration(workRng.Intn(20)) * time.Millisecond
			wg.Add(1)
			go func() {
				defer wg.Done()
				vclock.Wall.Sleep(delay)
				if err := in.Step(i); err != nil {
					t.Errorf("chaos step %d: %v", i, err)
				}
			}()
		}
		reqs := makeBatch()
		if err := c.SubmitBatch(reqs, 60*time.Second); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		mirror(reqs)
	}
	wg.Wait()

	if err := in.Quiesce(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	// One final batch with every replica live, submitted alone: its Low is
	// its own Seq, so it retires every earlier batch from the dedup tables.
	final := makeBatch()
	if err := c.SubmitBatch(final, 60*time.Second); err != nil {
		t.Fatalf("final batch: %v", err)
	}
	mirror(final)
	// QuorumSubmit acknowledges on a majority: wait for the third replica
	// before comparing all three states.
	if err := c.WaitCaughtUp(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	batches++

	// Convergence: all replicas identical, and identical to the reference.
	if !c.Converged() {
		t.Fatalf("replicas diverged after quiesce: %v", c.StateHashes())
	}
	want := refStore.StateHash(refStore.Epoch())
	for i, h := range c.StateHashes() {
		if h != want {
			t.Fatalf("replica %d state %x != fault-free reference %x", i, h, want)
		}
	}
	// Exactly once: every replica's state reflects each batch a single time
	// (replayed from the journal + live-applied, duplicates and redeliveries
	// excluded).
	for i := 0; i < c.Size(); i++ {
		rep := c.ReplicaAt(i)
		if rep.Batches() != batches {
			t.Errorf("replica %d reflects %d batches, want %d (deduped=%d redelivered=%d)",
				i, rep.Batches(), batches, rep.Deduped(), rep.Redelivered())
		}
	}

	checkDedupTables(t, c, 1)

	// Snapshotting must have run: the batch count spans several snapshot
	// intervals, so replicas captured snapshots and compacted their raft logs.
	taken, compacted := 0, 0
	for i := 0; i < c.Size(); i++ {
		taken += c.ReplicaAt(i).Snapshots() + c.ReplicaAt(i).SnapshotsInstalled()
		if c.NodeAt(i).SnapshotIndex() > 0 {
			compacted++
		}
	}
	if taken == 0 {
		t.Errorf("no replica captured or installed a snapshot across %d batches (interval %d)",
			batches, snapshotEvery)
	}
	if compacted == 0 {
		t.Error("no raft log was compacted despite snapshots being enabled")
	}

	counters := in.Counters()
	t.Logf("fault counters: %s", counters)
	if int(counters.Value("skipped")) >= stepIdx {
		t.Errorf("all %d fired fault steps were skipped — the schedule exercised nothing", stepIdx)
	}
	stats := c.Net.Stats()
	t.Logf("net stats: %+v", stats)
	if stats.Delivered == 0 {
		t.Fatal("network delivered nothing")
	}
	// A partition must show as drops unless nothing was sent across it: a
	// heal can land right after partition-leader.
	if stats.OfferedAcrossPartition > 0 && stats.DroppedPartition == 0 {
		t.Errorf("%d messages offered across a partition but no partition drops counted", stats.OfferedAcrossPartition)
	}
	// Loss must show as drops unless too little was sent under it: a plan
	// can fire loss and clear-loss with no traffic in between.
	odds := in.LossFreeOdds()
	t.Logf("odds that the loss steps dropped nothing: %.3g", odds)
	if counters.Value("loss") > 0 && stats.DroppedLoss == 0 && odds < 1e-4 {
		t.Errorf("loss applied but no loss drops counted (odds of that by chance: %.3g)", odds)
	}
	kills := counters.Value("kill-leader") + counters.Value("kill-random")
	restarts := counters.Value("restart") + counters.Value("restart-corrupt") + counters.Value("quiesce-restarts")
	if kills > restarts {
		t.Errorf("%d kills but only %d restarts — a replica was left down", kills, restarts)
	}
}

// checkDedupTables requires every replica, all caught up to one index, to
// hold the same dedup table, and no more entries than running, the submits
// that were running when the last batch was encoded: every batch below the
// last batch's Low is forgotten, and that Low is the lowest running Seq.
func checkDedupTables(t testing.TB, c *replica.Cluster, running int) {
	t.Helper()
	want := c.ReplicaAt(0).DedupTable()
	for i := 0; i < c.Size(); i++ {
		rep := c.ReplicaAt(i)
		if got := rep.DedupTable(); !bytes.Equal(got, want) {
			t.Errorf("replica %d dedup table %x, replica 0 %x", i, got, want)
		}
		if size := rep.DedupSize(); size > running {
			t.Errorf("replica %d dedup table holds %d entries after the final batch, submitted alone", i, size)
		}
	}
}
