package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"prognosticator/internal/vclock"
	"sync"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/flowctl"
	"prognosticator/internal/replica"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// overloadHarness drives a flow-limited cluster with concurrent submit
// pressure and accounts for every outcome: admitted batches are mirrored
// into a reference executor (the workload is deposits only, so cross-batch
// order commutes and any completion order reaches the same state), shed
// batches must carry a typed flowctl error and are never mirrored.
type overloadHarness struct {
	t *testing.T
	c *replica.Cluster

	refMu   sync.Mutex
	refExec engine.Executor
	refIdx  uint64
	ref     *store.Store

	mu       sync.Mutex
	admitted int
	shed     int
	running  int // submitOne calls that have not returned
	badErrs  []error
}

func newOverloadHarness(t *testing.T, c *replica.Cluster, reg *engine.Registry) *overloadHarness {
	st := store.New()
	return &overloadHarness{
		t: t, c: c, ref: st,
		refExec: engine.New(reg, st, engine.Config{Workers: 4}),
	}
}

// depositBatch builds one deposits-only batch from the given rng.
func depositBatch(rng *rand.Rand, txs int) []replica.Request {
	reqs := make([]replica.Request, 0, txs)
	for i := 0; i < txs; i++ {
		reqs = append(reqs, replica.Request{TxName: "deposit", Inputs: map[string]value.Value{
			"k":   value.Int(rng.Int63n(soakAccounts)),
			"amt": value.Int(1 + rng.Int63n(100)),
		}})
	}
	return reqs
}

// submitOne pushes one batch and classifies the outcome. Shed submits must
// surface flowctl.ErrOverload or flowctl.ErrDeadlineExceeded — anything
// else is recorded as a protocol violation and fails the test later.
func (h *overloadHarness) submitOne(reqs []replica.Request, within time.Duration) {
	h.mu.Lock()
	h.running++
	h.mu.Unlock()
	err := h.c.SubmitBatch(reqs, within)
	if err == nil {
		h.mirror(reqs)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.running--
	if err == nil {
		h.admitted++
		return
	}
	h.shed++
	if !errors.Is(err, flowctl.ErrOverload) && !errors.Is(err, flowctl.ErrDeadlineExceeded) {
		h.badErrs = append(h.badErrs, err)
	}
}

// mirror applies one admitted batch to the reference executor.
func (h *overloadHarness) mirror(reqs []replica.Request) {
	ereqs := make([]engine.Request, len(reqs))
	for i, r := range reqs {
		ereqs[i] = engine.Request{TxName: r.TxName, Inputs: r.Inputs}
	}
	h.refMu.Lock()
	defer h.refMu.Unlock()
	h.refIdx++
	decoded, err := encodeDecode(h.refIdx, ereqs)
	if err != nil {
		h.t.Error(err)
		return
	}
	if _, err := h.refExec.ExecuteBatch(decoded); err != nil {
		h.t.Error(err)
	}
}

// finalBatch retries one batch until it is admitted (the rate limiter may
// shed the first attempts), with every replica live and no other submit
// running: it retires every earlier batch from the dedup tables.
func (h *overloadHarness) finalBatch(rng *rand.Rand) {
	h.t.Helper()
	reqs := depositBatch(rng, 4)
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := h.c.SubmitBatch(reqs, 20*time.Second)
		if err == nil {
			h.mirror(reqs)
			h.mu.Lock()
			h.admitted++
			h.mu.Unlock()
			return
		}
		if !errors.Is(err, flowctl.ErrOverload) || !time.Now().Before(deadline) {
			h.t.Fatalf("final batch not admitted: %v", err)
		}
		vclock.Wall.Sleep(20 * time.Millisecond)
	}
}

// verify asserts the overload invariants after quiesce: no submit still
// running, typed errors only, exactly-once application of exactly the
// admitted set, inflight batches within the admission bound, identical
// dedup tables bounded by the final batch, and convergence to the reference
// state.
func (h *overloadHarness) verify(maxInflight int) {
	h.t.Helper()
	h.mu.Lock()
	running := h.running
	h.mu.Unlock()
	if running != 0 {
		h.t.Fatalf("%d submits still running at verify: the harness did not wait for them", running)
	}
	// QuorumSubmit acks on a majority: wait for the laggard before comparing
	// all three states.
	if err := h.c.WaitCaughtUp(20 * time.Second); err != nil {
		h.t.Fatal(err)
	}
	h.mu.Lock()
	admitted, shed, bad := h.admitted, h.shed, h.badErrs
	h.mu.Unlock()
	h.t.Logf("overload: admitted=%d shed=%d flow=%s inflightHW=%d",
		admitted, shed, h.c.Flow().Counters(), h.c.Flow().InflightHighWater())
	for _, err := range bad {
		h.t.Errorf("shed submit carried a non-flowctl error: %v", err)
	}
	if shed == 0 {
		h.t.Error("sustained overload shed nothing — admission control never engaged")
	}
	if hw := h.c.Flow().InflightHighWater(); hw > maxInflight {
		h.t.Errorf("inflight high water %d exceeds bound %d", hw, maxInflight)
	}
	if !h.c.Converged() {
		h.t.Fatalf("replicas diverged: %v", h.c.StateHashes())
	}
	want := h.ref.StateHash(h.ref.Epoch())
	for i, got := range h.c.StateHashes() {
		if got != want {
			h.t.Errorf("replica %d state %x != admitted-set reference %x", i, got, want)
		}
	}
	for i := 0; i < h.c.Size(); i++ {
		rep := h.c.ReplicaAt(i)
		if rep.Batches() != admitted {
			h.t.Errorf("replica %d reflects %d batches, want exactly the %d admitted (deduped=%d redelivered=%d)",
				i, rep.Batches(), admitted, rep.Deduped(), rep.Redelivered())
		}
	}
	checkDedupTables(h.t, h.c, 1)
}

// TestOverloadSoak is the flow-control soak: a flow-limited cluster takes
// sustained submit pressure far above its admission rate (4 unpaced workers
// plus chaos Overload bursts, against a token bucket refilling ~40/s — well
// over 2x what admission lets through), while the chaos injector also
// throttles replica apply loops and kills nodes. The cluster must shed
// deterministically with typed errors, keep the inflight batches under their
// bound, apply exactly the admitted batches exactly once, and converge.
func TestOverloadSoak(t *testing.T) {
	seed := soakSeed(t)
	const (
		maxInflight = 3
		workers     = 4
	)
	attempts := 40
	if testing.Short() {
		attempts = 20
	}
	t.Logf("overload soak: seed=%d workers=%d attempts=%d", seed, workers, attempts)

	reg := bankRegistry(t)
	c, err := replica.NewCluster(replica.ClusterConfig{
		Replicas: 3,
		Seed:     seed,
		NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
			return engine.New(reg, st, engine.Config{Workers: 4}), nil
		},
		DataDir:      t.TempDir(),
		QuorumSubmit: true,
		// Worker pressure runs at ~40+ submits/s against a 15/s token bucket:
		// offered load stays above 2x what admission lets through, so both
		// the rate limiter and the inflight cap must shed.
		Flow: flowctl.Config{
			MaxInflight: maxInflight,
			SubmitRate:  15,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	h := newOverloadHarness(t, c, reg)
	burstRng := rand.New(rand.NewSource(seed * 131))
	var burstRngMu sync.Mutex
	var wg sync.WaitGroup
	in := New(c, Config{Seed: seed, Steps: 10, Logf: t.Logf, Burst: func(n int) {
		for i := 0; i < n; i++ {
			burstRngMu.Lock()
			reqs := depositBatch(burstRng, 4)
			burstRngMu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.submitOne(reqs, 60*time.Second)
			}()
		}
	}})
	t.Logf("fault plan: %v", in.Plan())

	// The fault schedule fires from its own goroutine while workers submit.
	stepDone := make(chan struct{})
	go func() {
		defer close(stepDone)
		stepRng := rand.New(rand.NewSource(seed * 17))
		for i := 0; i < in.Steps(); i++ {
			vclock.Wall.Sleep(time.Duration(10+stepRng.Intn(30)) * time.Millisecond)
			if err := in.Step(i); err != nil {
				t.Errorf("chaos step %d: %v", i, err)
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			for a := 0; a < attempts; a++ {
				h.submitOne(depositBatch(rng, 8), 60*time.Second)
				vclock.Wall.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
			}
		}(w)
	}
	// The schedule's Overload steps add burst submits to wg: wait for the
	// schedule to finish before waiting on wg, or a late burst goes unwaited.
	<-stepDone
	wg.Wait()

	if err := in.Quiesce(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	h.finalBatch(rand.New(rand.NewSource(seed * 211)))
	h.verify(maxInflight)

	counters := in.Counters()
	t.Logf("fault counters: %s", counters)
	if counters.Value("overload") == 0 {
		t.Error("no overload burst fired (anchored fault missing from schedule?)")
	}
	if counters.Value("slow-apply") == 0 {
		t.Error("no slow-apply fault fired (anchored fault missing from schedule?)")
	}
}

// TestOverloadChaosProperty is the randomized invariant check: for many
// seeds, a small flow-limited cluster under concurrent overload and a
// seeded fault schedule must (a) apply every admitted batch exactly once,
// (b) never apply a shed batch, and (c) drain its dedup tables to zero
// after the final all-live acknowledgment.
func TestOverloadChaosProperty(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for s := 1; s <= seeds; s++ {
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			overloadPropertyRun(t, int64(s))
		})
	}
}

func overloadPropertyRun(t *testing.T, seed int64) {
	const maxInflight = 2
	reg := bankRegistry(t)
	c, err := replica.NewCluster(replica.ClusterConfig{
		Replicas: 3,
		Seed:     seed,
		NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
			return engine.New(reg, st, engine.Config{Workers: 2}), nil
		},
		DataDir:      t.TempDir(),
		QuorumSubmit: true,
		Flow: flowctl.Config{
			MaxInflight: maxInflight,
			SubmitRate:  60,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	h := newOverloadHarness(t, c, reg)
	var wg sync.WaitGroup
	var burstRngMu sync.Mutex
	burstRng := rand.New(rand.NewSource(seed * 131))
	in := New(c, Config{Seed: seed, Steps: len(anchors), Burst: func(n int) {
		for i := 0; i < n; i++ {
			burstRngMu.Lock()
			reqs := depositBatch(burstRng, 4)
			burstRngMu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.submitOne(reqs, 60*time.Second)
			}()
		}
	}})

	stepDone := make(chan struct{})
	go func() {
		defer close(stepDone)
		stepRng := rand.New(rand.NewSource(seed * 17))
		for i := 0; i < in.Steps(); i++ {
			vclock.Wall.Sleep(time.Duration(5+stepRng.Intn(15)) * time.Millisecond)
			if err := in.Step(i); err != nil {
				t.Errorf("chaos step %d: %v", i, err)
			}
		}
	}()

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			for a := 0; a < 10; a++ {
				h.submitOne(depositBatch(rng, 6), 60*time.Second)
				vclock.Wall.Sleep(time.Duration(rng.Intn(6)) * time.Millisecond)
			}
		}(w)
	}
	// The schedule's Overload steps add burst submits to wg: wait for the
	// schedule to finish before waiting on wg, or a late burst goes unwaited.
	<-stepDone
	wg.Wait()

	if err := in.Quiesce(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	h.finalBatch(rand.New(rand.NewSource(seed * 211)))
	h.verify(maxInflight)
}
