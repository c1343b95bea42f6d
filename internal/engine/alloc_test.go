package engine_test

import (
	"runtime"
	"testing"

	"prognosticator/internal/engine"
	"prognosticator/internal/store"
	"prognosticator/internal/workload/tpcc"
)

// TestAllocBudget pins what one transaction allocates on the engine's hot
// path, at Workers: 1 so that goroutine scheduling does not move the count.
// The ceilings are 15 % above what inputs bound once per batch, compiled
// profiles and re-preparations into the last round's arrays measured (82.3
// allocations and 6.51 KB per TPC-C transaction, 7.0 and 0.95 KB on RUBiS;
// 107.1 and 7.15 KB, 8.8 and 1.13 KB with compiled procedures and
// encoding-only keys alone; 120.0 and 11.26 KB, 10.0 and 1.37 KB before
// those; the counts repeat exactly, and the race detector moves them by 0.1
// at most); a rise past them means a per-transaction allocation came back.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("populates 100 TPC-C warehouses")
	}
	for _, tc := range []struct {
		w                     testWorkload
		maxAllocs, maxKBPerTx float64
	}{
		{tpccWorkload(tpcc.DefaultConfig(100), 100, 1), 94.6, 7.49},
		{rubisBrowseWorkload(10000, 200, 1), 8.05, 1.09},
	} {
		t.Run(tc.w.name, func(t *testing.T) {
			reg, err := engine.NewRegistry(tc.w.schema, tc.w.programs...)
			if err != nil {
				t.Fatal(err)
			}
			st := store.New()
			tc.w.populate(st)
			eng := engine.New(reg, st, engine.Config{Workers: 1})
			const warm, runs = 4, 8
			batches := tc.w.batches(warm + runs + 1)
			for _, b := range batches[:warm] {
				if _, err := eng.ExecuteBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			// AllocsPerRun calls the function once to warm up, then runs
			// times; every call takes the next batch.
			next := warm
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := eng.ExecuteBatch(batches[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
			runtime.ReadMemStats(&after)
			perTx := allocs / float64(tc.w.txPerBatch)
			kbPerTx := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64((runs+1)*tc.w.txPerBatch)
			t.Logf("%s: %.1f allocs/tx, %.2f KB/tx", tc.w.name, perTx, kbPerTx)
			if perTx > tc.maxAllocs {
				t.Errorf("%s: %.1f allocations per transaction, budget %.0f", tc.w.name, perTx, tc.maxAllocs)
			}
			if kbPerTx > tc.maxKBPerTx {
				t.Errorf("%s: %.2f KB per transaction, budget %.2f", tc.w.name, kbPerTx, tc.maxKBPerTx)
			}
		})
	}
}
