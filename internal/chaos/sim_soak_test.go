package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/flowctl"
	"prognosticator/internal/history"
	"prognosticator/internal/profile"
	"prognosticator/internal/raft"
	"prognosticator/internal/replica"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/vclock"
	"prognosticator/internal/workload/tpcc"
)

// encodeDecode round-trips one batch through the sequencer codec at a
// synthetic commit index, exactly as the replica apply path would see it.
func encodeDecode(idx uint64, ereqs []engine.Request) ([]engine.Request, error) {
	data, err := sequencer.EncodeBatchID("", ereqs)
	if err != nil {
		return nil, err
	}
	b, err := sequencer.DecodeBatch(raft.Committed{Index: idx, Cmd: data})
	if err != nil {
		return nil, err
	}
	return b.Requests, nil
}

// bankBatch builds one mixed bank batch (deposits, transfers and read-only
// audits) from the given rng.
func bankBatch(rng *rand.Rand, txs int) []replica.Request {
	reqs := make([]replica.Request, 0, txs)
	for i := 0; i < txs; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			reqs = append(reqs, replica.Request{TxName: "deposit", Inputs: map[string]value.Value{
				"k":   value.Int(rng.Int63n(soakAccounts)),
				"amt": value.Int(1 + rng.Int63n(100)),
			}})
		case 2:
			reqs = append(reqs, replica.Request{TxName: "audit", Inputs: map[string]value.Value{
				"k": value.Int(rng.Int63n(soakAccounts)),
			}})
		default:
			src := rng.Int63n(soakAccounts)
			dst := rng.Int63n(soakAccounts)
			if dst == src {
				dst = (src + 1) % soakAccounts
			}
			reqs = append(reqs, replica.Request{TxName: "transfer", Inputs: map[string]value.Value{
				"src": value.Int(src), "dst": value.Int(dst),
				"amt": value.Int(1 + rng.Int63n(50)),
			}})
		}
	}
	return reqs
}

// simTrace accumulates the replayable event log of one simulated run. Every
// line carries its virtual timestamp, and under the cooperative scheduler
// (vclock.Sim.Run) the timestamps are part of the replay contract: the
// entire interleaving — which actor runs when, which message arrives first,
// when elections fire — is a pure function of the seed, so two same-seed
// runs must produce byte-identical traces, timestamps included.
type simTrace struct {
	sim *vclock.Sim
	buf bytes.Buffer
}

func (tr *simTrace) add(format string, args ...any) {
	fmt.Fprintf(&tr.buf, "t=%d ", tr.sim.Now().UnixNano())
	fmt.Fprintf(&tr.buf, format, args...)
	tr.buf.WriteByte('\n')
}

func (tr *simTrace) String() string { return tr.buf.String() }

// assertReplay requires two same-seed runs to have produced byte-identical
// event traces — virtual timestamps included — and the same final state
// hash. This is the bit-stable replay guarantee: no timestamp stripping, no
// tolerance for runtime-ordered wakeups.
func assertReplay(t *testing.T, seed int64, tr1, tr2 string, h1, h2 uint64) {
	t.Helper()
	if h1 != h2 {
		t.Errorf("same-seed runs reached different states: %x vs %x", h1, h2)
	}
	if tr1 != tr2 {
		t.Errorf("same-seed runs produced different event traces (seed %d):\n--- run 1 ---\n%s--- run 2 ---\n%s", seed, tr1, tr2)
	}
}

// runSimChaosSoak is one fully simulated chaos soak: a 3-replica cluster on
// a seeded virtual clock under the cooperative scheduler, a sequential
// client (the root actor), and the chaos fault plan fired inline at batch
// boundaries. Returns the replayable event trace and the converged state
// hash.
func runSimChaosSoak(t *testing.T, seed int64) (string, uint64) {
	t.Helper()
	const steps, batches, txsPerBatch = 12, 24, 8
	sim := vclock.NewSim(seed)
	clk := sim.Clock()
	reg := bankRegistry(t)
	dir := t.TempDir()
	tr := &simTrace{sim: sim}
	var want uint64

	if err := sim.Run(func() {
		c, err := replica.NewCluster(replica.ClusterConfig{
			Replicas: 3,
			Seed:     seed,
			Clock:    clk,
			NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
				return engine.New(reg, st, engine.Config{Workers: 4}), nil
			},
			DataDir:       dir,
			SnapshotEvery: 8,
			QuorumSubmit:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()

		in := New(c, Config{Seed: seed, Steps: steps, Logf: t.Logf})
		tr.add("plan %v", in.Plan())

		refStore := store.New()
		refExec := engine.New(reg, refStore, engine.Config{Workers: 4})
		refIdx := uint64(0)
		mirror := func(reqs []replica.Request) {
			t.Helper()
			if err := mirrorBatch(refExec, &refIdx, reqs); err != nil {
				t.Fatal(err)
			}
		}

		workRng := rand.New(rand.NewSource(seed * 31))
		stepIdx := 0
		stepEvery := batches / steps
		if stepEvery < 1 {
			stepEvery = 1
		}
		for b := 0; b < batches; b++ {
			if b%stepEvery == 0 && stepIdx < in.Steps() {
				if err := in.Step(stepIdx); err != nil {
					t.Fatalf("chaos step %d: %v", stepIdx, err)
				}
				tr.add("step %d %s", stepIdx, in.Plan()[stepIdx])
				stepIdx++
			}
			reqs := bankBatch(workRng, txsPerBatch)
			if err := c.SubmitBatch(reqs, 60*time.Second); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			mirror(reqs)
			tr.add("batch %d ok", b)
		}

		if err := in.Quiesce(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		tr.add("quiesced")

		// Final all-live batch, submitted alone: it retires every earlier
		// batch from the dedup tables.
		final := bankBatch(workRng, txsPerBatch)
		if err := c.SubmitBatch(final, 60*time.Second); err != nil {
			t.Fatalf("final batch: %v", err)
		}
		mirror(final)
		// QuorumSubmit acknowledges on a majority: wait for the third replica
		// before comparing all three states.
		if err := c.WaitCaughtUp(60 * time.Second); err != nil {
			t.Fatal(err)
		}

		if !c.Converged() {
			t.Fatalf("replicas diverged after quiesce: %v", c.StateHashes())
		}
		want = refStore.StateHash(refStore.Epoch())
		hashes := c.StateHashes()
		for i, h := range hashes {
			if h != want {
				t.Fatalf("replica %d state %x != fault-free reference %x", i, h, want)
			}
		}
		for i := 0; i < c.Size(); i++ {
			if got := c.ReplicaAt(i).Batches(); got != batches+1 {
				t.Errorf("replica %d reflects %d batches, want %d", i, got, batches+1)
			}
		}
		checkDedupTables(t, c, 1)
		tr.add("converged hash=%016x", want)
	}); err != nil {
		t.Fatal(err)
	}
	return tr.String(), want
}

// mirrorBatch applies one submitted batch to the fault-free reference
// executor at a synthetic index.
func mirrorBatch(exec engine.Executor, idx *uint64, reqs []replica.Request) error {
	ereqs := make([]engine.Request, len(reqs))
	for i, r := range reqs {
		ereqs[i] = engine.Request{TxName: r.TxName, Inputs: r.Inputs}
	}
	batch, err := encodeDecode(*idx+1, ereqs)
	if err != nil {
		return err
	}
	*idx++
	_, err = exec.ExecuteBatch(batch)
	return err
}

// TestSimChaosSoak runs the chaos soak twice on the same seeded virtual
// clock and requires identical replay: same event sequence, same converged
// state hash. The wall-clock TestChaosSoak remains as the real-time smoke
// variant.
func TestSimChaosSoak(t *testing.T) {
	seed := soakSeed(t)
	t.Logf("sim chaos soak: seed=%d", seed)
	tr1, h1 := runSimChaosSoak(t, seed)
	tr2, h2 := runSimChaosSoak(t, seed)
	assertReplay(t, seed, tr1, tr2, h1, h2)
}

// Golden replay pins for TestGoldenSeedReplay: the converged state hash and
// the FNV-1a hash of the full event trace for one fixed seed. These values
// are part of the determinism contract — they must reproduce on any
// machine, any GOMAXPROCS, with or without -race. They legitimately change
// only when the simulation's event sequence changes by design (scheduler
// pick function, chaos plan, workload generator, timer cadence, message
// encoding); regenerate by running
//
//	go test -run TestGoldenSeedReplay -v ./internal/chaos
//
// and copying the hashes from the failure output.
//
// The trace hash was last re-pinned when the acknowledgement path became
// event-driven (the leader's commit notices add messages, submitters wake on
// the apply instead of a backoff step, so every batch is acknowledged at an
// earlier virtual instant); the state hash did not move.
const (
	goldenSeed             = 42
	goldenStateHash uint64 = 0xbfde4f046cd3036f
	goldenTraceHash uint64 = 0x02f3502a6f551ba4
)

// TestGoldenSeedReplay is the cross-machine regression pin for bit-stable
// simulation: seed 42's chaos soak must converge to exactly the golden
// state hash with exactly the golden event trace, forever. A failure here
// without an intentional simulation change means determinism regressed —
// some new code path consults the Go runtime's scheduling, a map order, or
// wall time.
func TestGoldenSeedReplay(t *testing.T) {
	tr, state := runSimChaosSoak(t, goldenSeed)
	h := fnv.New64a()
	h.Write([]byte(tr))
	traceHash := h.Sum64()
	if state != goldenStateHash || traceHash != goldenTraceHash {
		t.Errorf("golden replay diverged (seed %d):\n  state hash %#016x, want %#016x\n  trace hash %#016x, want %#016x\nIf the simulation changed BY DESIGN, update goldenStateHash/goldenTraceHash to these values.",
			goldenSeed, state, goldenStateHash, traceHash, goldenTraceHash)
	}
}

// runSimOverloadSoak drives sustained sequential submit pressure against a
// flow-limited cluster on the virtual clock: admission decisions (token
// bucket, retry budget, breaker) all run in virtual time, so the
// admit/shed sequence is part of the replayable trace.
func runSimOverloadSoak(t *testing.T, seed int64) (string, uint64) {
	t.Helper()
	const attempts, txsPerBatch = 40, 8
	sim := vclock.NewSim(seed)
	clk := sim.Clock()
	reg := bankRegistry(t)
	dir := t.TempDir()
	tr := &simTrace{sim: sim}
	var want uint64

	if err := sim.Run(func() {
		c, err := replica.NewCluster(replica.ClusterConfig{
			Replicas: 3,
			Seed:     seed,
			Clock:    clk,
			NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
				return engine.New(reg, st, engine.Config{Workers: 4}), nil
			},
			DataDir:      dir,
			QuorumSubmit: true,
			Flow: flowctl.Config{
				MaxInflight: 3,
				SubmitRate:  15,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()

		refStore := store.New()
		refExec := engine.New(reg, refStore, engine.Config{Workers: 4})
		refIdx := uint64(0)

		workRng := rand.New(rand.NewSource(seed * 131))
		admitted, shed := 0, 0
		for a := 0; a < attempts; a++ {
			reqs := bankBatch(workRng, txsPerBatch)
			err := c.SubmitBatch(reqs, 30*time.Second)
			switch {
			case err == nil:
				admitted++
				if merr := mirrorBatch(refExec, &refIdx, reqs); merr != nil {
					t.Fatal(merr)
				}
				tr.add("submit %d admitted", a)
			case errors.Is(err, flowctl.ErrOverload) || errors.Is(err, flowctl.ErrDeadlineExceeded):
				shed++
				tr.add("submit %d shed", a)
			default:
				t.Fatalf("submit %d: non-flowctl error: %v", a, err)
			}
		}
		if shed == 0 {
			t.Error("sustained overload shed nothing — admission control never engaged")
		}

		// Drain: wait for token-bucket refill (virtual time!) and land one final
		// batch, which retires every earlier one from the dedup tables.
		var finalErr error
		for tries := 0; tries < 50; tries++ {
			reqs := bankBatch(workRng, 4)
			finalErr = c.SubmitBatch(reqs, 30*time.Second)
			if finalErr == nil {
				admitted++
				if merr := mirrorBatch(refExec, &refIdx, reqs); merr != nil {
					t.Fatal(merr)
				}
				break
			}
			if !errors.Is(finalErr, flowctl.ErrOverload) {
				t.Fatalf("final batch: %v", finalErr)
			}
			clk.Sleep(200 * time.Millisecond)
		}
		if finalErr != nil {
			t.Fatalf("final batch never admitted: %v", finalErr)
		}
		if err := c.WaitCaughtUp(30 * time.Second); err != nil {
			t.Fatal(err)
		}

		tr.add("admitted=%d shed=%d flow=%s", admitted, shed, c.Flow().Counters())
		if !c.Converged() {
			t.Fatalf("replicas diverged: %v", c.StateHashes())
		}
		want = refStore.StateHash(refStore.Epoch())
		for i, h := range c.StateHashes() {
			if h != want {
				t.Fatalf("replica %d state %x != admitted-set reference %x", i, h, want)
			}
		}
		for i := 0; i < c.Size(); i++ {
			if got := c.ReplicaAt(i).Batches(); got != admitted {
				t.Errorf("replica %d reflects %d batches, want exactly the %d admitted", i, got, admitted)
			}
		}
		checkDedupTables(t, c, 1)
		tr.add("converged hash=%016x", want)
	}); err != nil {
		t.Fatal(err)
	}
	return tr.String(), want
}

// TestSimOverloadSoak replays the overload soak: two same-seed virtual-time
// runs must produce the identical admit/shed sequence and final state. The
// wall-clock TestOverloadSoak remains as the real-time smoke variant.
func TestSimOverloadSoak(t *testing.T) {
	seed := soakSeed(t)
	t.Logf("sim overload soak: seed=%d", seed)
	tr1, h1 := runSimOverloadSoak(t, seed)
	tr2, h2 := runSimOverloadSoak(t, seed)
	assertReplay(t, seed, tr1, tr2, h1, h2)
}

// TestSimSerializability records every committed transaction's read/write
// footprints from simulated cluster runs — the bank workload under network
// faults, and TPC-C over pre-populated stores — and feeds the recorded
// histories to the serializability checker. It then corrupts a recorded
// history with a textbook anomaly and requires the checker to reject it.
func TestSimSerializability(t *testing.T) {
	seed := soakSeed(t)

	t.Run("bank", func(t *testing.T) {
		rec := simSerializabilityRun(t, seed, bankRegistry(t), nil, func(rng *rand.Rand) []replica.Request {
			return bankBatch(rng, 8)
		}, true)
		if rec.Len() == 0 {
			t.Fatal("no operations recorded")
		}
		if err := rec.Check(nil); err != nil {
			t.Errorf("recorded bank history rejected: %v", err)
		}
		if len(rec.Traces()) == 0 {
			t.Fatal("no lock traces recorded")
		}
		if err := rec.CheckTraced(nil); err != nil {
			t.Errorf("lock-grant-traced bank history rejected: %v", err)
		}
	})

	t.Run("tpcc", func(t *testing.T) {
		cfg := tpcc.DefaultConfig(1)
		reg, err := engine.NewRegistry(tpcc.Schema(), tpcc.Programs(cfg)...)
		if err != nil {
			t.Fatal(err)
		}
		// Initial-state fingerprints from an identically populated scratch
		// store: TPC-C rows exist before the first recorded transaction.
		seedStore := store.New()
		tpcc.Populate(seedStore, cfg)
		initial := map[string]string{}
		seedStore.ForEach(seedStore.Epoch(), func(k value.Encoded, v value.Value) {
			initial[string(k)] = engine.Fingerprint(v)
		})
		gen := tpcc.NewGenerator(cfg, seed)
		rec := simSerializabilityRun(t, seed, reg, func(st *store.Store) {
			tpcc.Populate(st, cfg)
		}, func(rng *rand.Rand) []replica.Request {
			reqs := make([]replica.Request, 0, 6)
			for i := 0; i < 6; i++ {
				name, inputs := gen.Next()
				reqs = append(reqs, replica.Request{TxName: name, Inputs: inputs})
			}
			return reqs
		}, false)
		if rec.Len() == 0 {
			t.Fatal("no operations recorded")
		}
		if err := rec.Check(initial); err != nil {
			t.Errorf("recorded TPC-C history rejected: %v", err)
		}
		if err := rec.CheckTraced(initial); err != nil {
			t.Errorf("lock-grant-traced TPC-C history rejected: %v", err)
		}
	})

	t.Run("rejects-injected-anomaly", func(t *testing.T) {
		// A lost update spliced onto a fresh key must always be rejected,
		// whatever the surrounding recorded history looks like.
		ops := []history.Op{
			{ID: "anomaly-1", Index: 1 << 60, Seq: 1 << 60, Class: profile.ClassIT,
				Reads:  []engine.Access{{Key: "anomaly:x", Val: ""}},
				Writes: []engine.Access{{Key: "anomaly:x", Val: "a1"}}},
			{ID: "anomaly-2", Index: 1<<60 + 1, Seq: 1<<60 + 1, Class: profile.ClassIT,
				Reads:  []engine.Access{{Key: "anomaly:x", Val: ""}},
				Writes: []engine.Access{{Key: "anomaly:x", Val: "a2"}}},
		}
		if err := history.Check(ops, nil); err == nil {
			t.Fatal("checker accepted an injected lost update")
		}
	})
}

// simSerializabilityRun runs one simulated cluster with footprint recording
// on and a history recorder tapping every replica's apply path, submits
// seeded batches (with a few network faults when withFaults is set), and
// returns the recorder.
func simSerializabilityRun(t *testing.T, seed int64, reg *engine.Registry, populate func(*store.Store), makeBatch func(*rand.Rand) []replica.Request, withFaults bool) *history.Recorder {
	t.Helper()
	const batches = 16
	sim := vclock.NewSim(seed)
	clk := sim.Clock()
	dir := t.TempDir()

	rec := history.NewRecorder()
	if err := sim.Run(func() {
		c, err := replica.NewCluster(replica.ClusterConfig{
			Replicas: 3,
			Seed:     seed,
			Clock:    clk,
			NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
				if populate != nil {
					populate(st)
				}
				return engine.New(reg, st, engine.Config{Workers: 4, RecordFootprints: true, TraceLocks: true}), nil
			},
			DataDir:      dir,
			QuorumSubmit: true,
			OnApply:      rec.Observe,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()

		workRng := rand.New(rand.NewSource(seed * 53))
		for b := 0; b < batches; b++ {
			if withFaults {
				switch b {
				case 3:
					c.Net.SetLoss(0.10)
				case 6:
					c.Net.SetLoss(0)
					c.Net.SetDelay(0, 2*time.Millisecond)
				case 9:
					c.Net.SetDelay(0, 0)
					if li, lerr := c.WaitLeader(10 * time.Second); lerr == nil {
						ids := c.IDs()
						minority := []string{ids[li]}
						var majority []string
						for i, id := range ids {
							if i != li {
								majority = append(majority, id)
							}
						}
						c.Net.Partition(minority, majority)
					}
				case 12:
					c.Net.Heal()
				}
			}
			if err := c.SubmitBatch(makeBatch(workRng), 60*time.Second); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
		}
		if withFaults {
			c.Net.Heal()
			c.Net.SetLoss(0)
			c.Net.SetDelay(0, 0)
		}
		if err := c.WaitCaughtUp(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestSimAckLatency holds the acknowledgement path to being event-driven. On
// a fault-free simulated cluster with zero network delay nothing between a
// proposal and its acknowledgement takes virtual time — replication, the
// leader's commit notice, the applies and the submitter's wake-up are all
// message- or signal-driven — so every SubmitBatch must return in less
// virtual time than one raft tick. A follower that learnt the commit index
// from the next heartbeat, or a submitter that polled for the apply under
// backoff, would each add a tick or a backoff step (20 ms and 1 ms up here).
func TestSimAckLatency(t *testing.T) {
	seed := soakSeed(t)
	const batchesEach = 12
	reg := bankRegistry(t)
	for _, tc := range []struct {
		name       string
		quorum     bool
		submitters int
	}{
		{"all-replicas/1-submitter", false, 1},
		{"all-replicas/2-submitters", false, 2},
		{"quorum/1-submitter", true, 1},
		{"quorum/2-submitters", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vclock.NewSim(seed)
			clk := sim.Clock()
			const heartbeat = 40 * time.Millisecond
			const tick = heartbeat / 2 // raft's timer period
			if err := sim.Run(func() {
				c, err := replica.NewCluster(replica.ClusterConfig{
					Replicas: 3, Seed: seed, Clock: clk,
					Raft:         raft.Config{HeartbeatInterval: heartbeat},
					QuorumSubmit: tc.quorum,
					NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
						return engine.New(reg, st, engine.Config{Workers: 2}), nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Stop()
				if _, err := c.WaitLeader(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				var joins []func()
				for s := 0; s < tc.submitters; s++ {
					rng := rand.New(rand.NewSource(seed*977 + int64(s)))
					joins = append(joins, vclock.Go(clk, fmt.Sprintf("submitter-%d", s), func() {
						for b := 0; b < batchesEach; b++ {
							start := clk.Now()
							if err := c.SubmitBatch(bankBatch(rng, 4), 10*time.Second); err != nil {
								t.Errorf("batch %d: %v", b, err)
								return
							}
							if took := clk.Since(start); took >= tick {
								t.Errorf("batch %d acknowledged after %v of virtual time, want under one raft tick (%v)", b, took, tick)
							}
						}
					}))
				}
				for _, join := range joins {
					join()
				}
				if err := c.WaitCaughtUp(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				if !c.Converged() {
					t.Errorf("replicas diverged: %x", c.StateHashes())
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
