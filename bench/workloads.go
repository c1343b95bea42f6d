package main

import (
	"math/rand"

	"prognosticator/internal/engine"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: the real callers of the system — the replica apply loop and
// blocking SubmitBatch clients — each wait for a reply before sending again.
type workload struct {
	name string
	// txPerBatch is the workload's batch size. The two engine TPC-C workloads
	// take 100: one warehouse needs that many per batch to pass one abort per
	// transaction (1.2; 0.6 at 50). RUBiS takes 200 short transactions. The
	// cluster takes 10, because three replicas share the one processor and a
	// submit costs some 20 ms whatever it carries: 10 per batch gives 1200
	// latency samples in the window, 50 per batch 330 (README, sizes).
	txPerBatch int
	// prefix is the fixed number of batches every run starts with: warm-up,
	// the state-hash check against a Workers:1 replay, the live-heap reading
	// and (traced runs) the exact-count metrics and the layer ladder. Fixed,
	// so that all of these repeat whatever --seconds is and however fast the
	// system under test runs.
	prefix int
	// clients is the number of closed-loop submitters in the timed window.
	// An engine executes one batch at a time, so only the cluster takes 2.
	clients int
	// cluster routes batches through replica.NewCluster (3 replicas, memnet,
	// WAL fsync) instead of a single engine.
	cluster     bool
	newRegistry func() (*engine.Registry, error)
	populate    func(*store.Store)
	// newGen returns a deterministic request generator for a seed.
	newGen func(seed int64) func() (string, map[string]value.Value)
}

func tpccWorkload(name string, warehouses, txPerBatch, prefix int) workload {
	cfg := tpcc.DefaultConfig(warehouses)
	return workload{
		name: name, txPerBatch: txPerBatch, prefix: prefix, clients: 1,
		newRegistry: func() (*engine.Registry, error) {
			return engine.NewRegistry(tpcc.Schema(), tpcc.Programs(cfg)...)
		},
		populate: func(st *store.Store) { tpcc.Populate(st, cfg) },
		newGen: func(seed int64) func() (string, map[string]value.Value) {
			return tpcc.NewGenerator(cfg, seed).Next
		},
	}
}

// rubisBrowse is the benchmark's own RUBiS mix: 80% read-only views, spread
// evenly over the three view transactions, and 20% the paper's RUBiS-C
// update mix. The repo's generator is update-only.
func rubisBrowse(size, prefix int) workload {
	cfg := rubis.Config{Users: size, Items: size}
	return workload{
		name: "rubis_browse", txPerBatch: 200, prefix: prefix, clients: 1,
		newRegistry: func() (*engine.Registry, error) {
			return engine.NewRegistry(rubis.Schema(), rubis.Programs(cfg)...)
		},
		populate: func(st *store.Store) { rubis.Populate(st, cfg) },
		newGen: func(seed int64) func() (string, map[string]value.Value) {
			updates := rubis.NewGenerator(cfg, seed)
			r := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
			return func() (string, map[string]value.Value) {
				switch p := r.Intn(15); {
				case p < 4:
					return "viewItem", map[string]value.Value{"itemId": value.Int(1 + r.Int63n(int64(cfg.Items)))}
				case p < 8:
					return "viewUser", map[string]value.Value{"userId": value.Int(1 + r.Int63n(int64(cfg.Users)))}
				case p < 12:
					return "viewBidHistory", map[string]value.Value{"itemId": value.Int(1 + r.Int63n(int64(cfg.Items)))}
				default:
					return updates.Next()
				}
			}
		},
	}
}

// workloads returns the four workloads at full or smoke scale. Smoke scale
// shrinks data, batches and prefix so that all four run in seconds under
// -race; its numbers mean nothing.
func workloads(smoke bool) []workload {
	lowWH, clusterWH, rubisSize := 100, 10, 10000
	if smoke {
		lowWH, clusterWH, rubisSize = 2, 1, 500
	}
	cluster := tpccWorkload("cluster_tpcc", clusterWH, 10, 100)
	cluster.cluster, cluster.clients = true, 2
	all := []workload{
		tpccWorkload("tpcc_low", lowWH, 100, 50),
		tpccWorkload("tpcc_high", 1, 100, 50),
		rubisBrowse(rubisSize, 300),
		cluster,
	}
	if smoke {
		for i := range all {
			all[i].txPerBatch /= 5
			all[i].prefix = 2
		}
	}
	return all
}

// batchGen draws whole batches from a workload generator.
func (w workload) batchGen(seed int64) func() []engine.Request {
	next := w.newGen(seed)
	return func() []engine.Request {
		b := make([]engine.Request, w.txPerBatch)
		for i := range b {
			b[i].TxName, b[i].Inputs = next()
		}
		return b
	}
}
