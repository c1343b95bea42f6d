package engine_test

import (
	"math/rand"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// testWorkload is one of the benchmark's engine workloads (bench/workloads.go:
// the same programs and generators) at a size a test chooses.
type testWorkload struct {
	name       string
	txPerBatch int
	schema     *lang.Schema
	programs   []*lang.Program
	populate   func(*store.Store)
	next       func() (string, map[string]value.Value)
}

func tpccWorkload(cfg tpcc.Config, txPerBatch int, seed int64) testWorkload {
	return testWorkload{
		name: "tpcc", txPerBatch: txPerBatch,
		schema: tpcc.Schema(), programs: tpcc.Programs(cfg),
		populate: func(st *store.Store) { tpcc.Populate(st, cfg) },
		next:     tpcc.NewGenerator(cfg, seed).Next,
	}
}

// rubisBrowseWorkload is the benchmark's RUBiS mix: 80% read-only views
// beside the RUBiS-C update mix.
func rubisBrowseWorkload(size, txPerBatch int, seed int64) testWorkload {
	cfg := rubis.Config{Users: size, Items: size}
	updates := rubis.NewGenerator(cfg, seed)
	r := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	return testWorkload{
		name: "rubis_browse", txPerBatch: txPerBatch,
		schema: rubis.Schema(), programs: rubis.Programs(cfg),
		populate: func(st *store.Store) { rubis.Populate(st, cfg) },
		next: func() (string, map[string]value.Value) {
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
		},
	}
}

func (w testWorkload) batches(n int) [][]engine.Request {
	out := make([][]engine.Request, n)
	seq := uint64(0)
	for i := range out {
		out[i] = make([]engine.Request, w.txPerBatch)
		for j := range out[i] {
			seq++
			out[i][j].Seq = seq
			out[i][j].TxName, out[i][j].Inputs = w.next()
		}
	}
	return out
}
