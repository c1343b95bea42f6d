// Command replicad runs an in-process replicated deployment: a Raft-
// sequenced cluster of replicas, each executing the same ordered batches
// through its own Prognosticator engine — with a DIFFERENT worker count per
// replica — and verifies after every batch that all replica state hashes
// agree. This is the determinism property the whole system exists for.
//
// With -chaos, a seeded fault schedule (internal/chaos) runs alongside the
// workload: replicas are killed and restarted mid-batch (recovering from
// their journal, sometimes after a crash left a torn frame at its end), the
// leader is partitioned away, and
// message loss/delay is injected — after which all replicas must still
// converge. Chaos enables -datadir persistence (a temp directory when
// unset) and runs every fault over either transport: over tcp, messages
// pass the same fault filter before the socket write, and crash/restart
// close and re-listen real sockets.
//
// With -snapshot-every N (requires -datadir, implied under -chaos), each
// replica captures a store snapshot every N applied batches and compacts its
// raft journal below it, so crashed replicas recover from the snapshot plus
// the journal above it instead of replaying from index 1.
//
// With -datadir, each replica keeps one durable journal, its raft storage
// under DIR/<id>/raft, which also holds the replica's applied-index hints;
// snapshot files go to DIR/<id>/snap.
//
// Flow-control flags (-max-inflight, -submit-rate, -retry-budget) bound the
// submit path: excess load is shed synchronously with a typed error instead
// of queueing without bound, and retries draw from a finite budget.
// -submit-window tunes how long one raft proposal is waited on before the
// batch is idempotently re-proposed.
//
// Usage:
//
//	replicad [-replicas N] [-batches N] [-txs N] [-warehouses N] [-seed N]
//	         [-transport mem|tcp] [-chaos] [-chaos-seed N] [-datadir DIR]
//	         [-snapshot-every N] [-max-inflight N] [-submit-rate R]
//	         [-retry-budget R] [-submit-window D]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"prognosticator/internal/chaos"
	"prognosticator/internal/engine"
	"prognosticator/internal/flowctl"
	"prognosticator/internal/harness"
	"prognosticator/internal/replica"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/tpcc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replicad:", err)
		os.Exit(1)
	}
}

func run() error {
	replicas := flag.Int("replicas", 3, "number of replicas")
	batches := flag.Int("batches", 20, "batches to run")
	txs := flag.Int("txs", 100, "transactions per batch")
	warehouses := flag.Int("warehouses", 4, "TPC-C warehouses")
	seed := flag.Int64("seed", 1, "workload seed")
	transport := flag.String("transport", "mem", "consensus transport: mem (simulated) or tcp (loopback sockets)")
	chaosOn := flag.Bool("chaos", false, "run a fault schedule alongside the workload (every fault runs over either transport)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault schedule seed (with -chaos)")
	chaosSteps := flag.Int("chaos-steps", 0, "fault schedule length (0 = one step per two batches, with -chaos)")
	dataDir := flag.String("datadir", "", "keep each replica's journal (raft state, batches, applied-index hints) and snapshots under this directory (required for crash/restart faults; temp dir when -chaos is set and this is empty)")
	snapshotEvery := flag.Uint64("snapshot-every", 0, "capture a store snapshot and compact the raft log every N applied batches (0 disables; requires -datadir)")
	maxInflight := flag.Int("max-inflight", 0, "bound concurrently admitted submit batches cluster-wide (0 = unbounded)")
	submitRate := flag.Float64("submit-rate", 0, "token-bucket admission rate in batches/second; without a token the batch is shed, never queued (0 = unlimited)")
	retryBudget := flag.Float64("retry-budget", 0, "cap on stored retry tokens; each retry withdraws one, each acknowledged submit deposits a fraction (0 = unlimited retries)")
	submitWindow := flag.Duration("submit-window", 0, "how long one proposal is waited on before the batch is idempotently re-proposed through the then-current leader (0 = default 2s)")
	flag.Parse()

	if *snapshotEvery > 0 && *dataDir == "" && !*chaosOn {
		return fmt.Errorf("-snapshot-every requires -datadir (snapshot files must land somewhere durable)")
	}
	if *chaosOn && *dataDir == "" {
		d, err := os.MkdirTemp("", "replicad-chaos-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		*dataDir = d
		fmt.Printf("chaos: persisting state under %s\n", d)
	}

	cfg := tpcc.DefaultConfig(*warehouses)
	cfg.Items = 200
	cfg.CustomersPerDistrict = 30
	reg, err := engine.NewRegistry(tpcc.Schema(), tpcc.Programs(cfg)...)
	if err != nil {
		return err
	}
	cluster, err := replica.NewCluster(replica.ClusterConfig{
		Replicas:      *replicas,
		Seed:          *seed,
		TCP:           *transport == "tcp",
		DataDir:       *dataDir,
		SnapshotEvery: *snapshotEvery,
		// Under chaos a crashed replica lags until it rejoins; a majority
		// carries the workload forward in the meantime.
		QuorumSubmit: *chaosOn,
		SubmitWindow: *submitWindow,
		Flow: flowctl.Config{
			MaxInflight: *maxInflight,
			SubmitRate:  *submitRate,
			RetryBudget: *retryBudget,
		},
		NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
			tpcc.Populate(st, cfg)
			// Deliberately different parallelism per replica: determinism
			// must hold anyway.
			workers := 1 + len(id)%7
			fmt.Printf("replica %s: %d workers\n", id, workers)
			return engine.New(reg, st, engine.Config{Workers: workers}), nil
		},
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()

	var injector *chaos.Injector
	if *chaosOn {
		steps := *chaosSteps
		if steps <= 0 {
			steps = *batches / 2
		}
		injector = chaos.New(cluster, chaos.Config{
			Seed:  *chaosSeed,
			Steps: steps,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		fmt.Printf("chaos: seed=%d plan=%v\n", *chaosSeed, injector.Plan())
	}

	gen := tpcc.NewGenerator(cfg, *seed)
	start := time.Now()
	var wg sync.WaitGroup
	stepIdx := 0
	for b := 0; b < *batches; b++ {
		if injector != nil && stepIdx < injector.Steps() && b%2 == 0 {
			i := stepIdx
			stepIdx++
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := injector.Step(i); err != nil {
					fmt.Fprintln(os.Stderr, "replicad:", err)
				}
			}()
		}
		reqs := make([]struct {
			TxName string
			Inputs map[string]value.Value
		}, *txs)
		for i := range reqs {
			reqs[i].TxName, reqs[i].Inputs = gen.Next()
		}
		if err := cluster.SubmitBatch(reqs, 60*time.Second); err != nil {
			return err
		}
		if injector == nil {
			// Fault-free runs check convergence after every batch; under
			// chaos, crashed replicas legitimately lag until Quiesce.
			hashes := cluster.StateHashes()
			if !cluster.Converged() {
				return fmt.Errorf("DIVERGENCE after batch %d: %x", b+1, hashes)
			}
			fmt.Printf("batch %3d: %d tx committed on %d replicas, state hash %016x ✓\n",
				b+1, *txs, *replicas, hashes[0])
		} else {
			fmt.Printf("batch %3d: %d tx committed (quorum)\n", b+1, *txs)
		}
	}
	wg.Wait()
	if injector != nil {
		if err := injector.Quiesce(60 * time.Second); err != nil {
			return err
		}
		if err := cluster.Err(); err != nil {
			return err
		}
		hashes := cluster.StateHashes()
		if !cluster.Converged() {
			return fmt.Errorf("DIVERGENCE after quiesce: %x", hashes)
		}
		for i := 0; i < cluster.Size(); i++ {
			if got := cluster.ReplicaAt(i).Batches(); got != *batches {
				return fmt.Errorf("replica %d reflects %d batches, want %d", i, got, *batches)
			}
			// The dedup table is built from the log alone, so it agrees too.
			if !bytes.Equal(cluster.ReplicaAt(i).DedupTable(), cluster.ReplicaAt(0).DedupTable()) {
				return fmt.Errorf("DIVERGENCE after quiesce: replica %d's dedup table differs from replica 0's", i)
			}
		}
		fmt.Printf("\nchaos: converged after quiesce, state hash %016x, every batch applied exactly once\n", hashes[0])
		fmt.Printf("chaos: faults %s\n", injector.Counters())
		fmt.Printf("chaos: net %+v\n", cluster.Net.Stats())
	}
	if *maxInflight > 0 || *submitRate > 0 || *retryBudget > 0 {
		fmt.Printf("flow: %s (inflight high water %d)\n", cluster.Flow().Counters(), cluster.Flow().InflightHighWater())
	}
	if *snapshotEvery > 0 {
		for i := 0; i < cluster.Size(); i++ {
			rep := cluster.ReplicaAt(i)
			fmt.Printf("replica %d: snapshots taken=%d installed=%d raft compacted to %d, dedup entries=%d\n",
				i, rep.Snapshots(), rep.SnapshotsInstalled(), cluster.NodeAt(i).SnapshotIndex(),
				rep.DedupSize())
		}
	}
	elapsed := time.Since(start)
	total := *batches * *txs
	fmt.Printf("\n%d transactions, %d batches, %d replicas in %v (%.0f tx/s/replica)\n",
		total, *batches, *replicas, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	counts := harness.ClassCount(reg)
	fmt.Printf("catalog: %v — all replicas converged on every batch (transport: %s)\n", counts, *transport)
	return nil
}
