package engine_test

import (
	"testing"

	"prognosticator/internal/baselines"
	"prognosticator/internal/engine"
	"prognosticator/internal/store"
	"prognosticator/internal/workload/tpcc"
)

// TestPoolIndependence: every executor is one batch body over the pool, so
// the same batches through the threaded and the virtual pool must give the
// same state hash and, batch by batch, the same abort count, fail rounds and
// (Calvin) carried-over transactions — the pool decides when a step runs,
// never what it does.
func TestPoolIndependence(t *testing.T) {
	type fixture struct {
		reg     *engine.Registry
		store   func() *store.Store
		batches [][]engine.Request
	}
	bank := fixture{engine.BankRegistry(t), engine.BankStore, engine.RandomBatches(77, 10, 50)}
	// Read-own-write aliasing the profiles mispredict: drives the MF
	// no-progress fallback.
	mispredict := fixture{engine.FuzzRegistry(t), engine.FuzzStore, engine.FuzzBatches(21, 6, 20)}
	tcfg := tpcc.Config{Warehouses: 1, Items: 40, CustomersPerDistrict: 10, OrderLinesMin: 5, OrderLinesMax: 15}
	treg, err := engine.NewRegistry(tpcc.Schema(), tpcc.Programs(tcfg)...)
	if err != nil {
		t.Fatal(err)
	}
	tpccFx := fixture{reg: treg, store: func() *store.Store {
		st := store.New()
		tpcc.Populate(st, tcfg)
		return st
	}}
	gen := tpcc.NewGenerator(tcfg, 3)
	for b, seq := 0, uint64(0); b < 5; b++ {
		var batch []engine.Request
		for i := 0; i < 30; i++ {
			seq++
			tx, in := gen.Next()
			batch = append(batch, engine.Request{Seq: seq, TxName: tx, Inputs: in})
		}
		tpccFx.batches = append(tpccFx.batches, batch)
	}

	type build func(*engine.Registry, *store.Store, engine.Pool) engine.Executor
	eng := func(cfg engine.Config) build {
		return func(reg *engine.Registry, st *store.Store, p engine.Pool) engine.Executor {
			return engine.NewWithPool(reg, st, cfg, p)
		}
	}
	for _, tc := range []struct {
		name string
		fx   fixture
		new  build
	}{
		{"MQ-MF", bank, eng(engine.Config{})},
		{"MQ-SF", bank, eng(engine.Config{Fail: engine.FailSequential})},
		{"1Q-MF", bank, eng(engine.Config{Queue: engine.QueueSingle})},
		{"MQ-MF-R", bank, eng(engine.Config{Prepare: engine.PrepareRecon})},
		{"exclusive-locks", bank, eng(engine.Config{ExclusiveLocks: true})},
		{"mispredictions", mispredict, eng(engine.Config{})},
		{"tpcc", tpccFx, eng(engine.Config{})},
		{"Calvin", bank, func(reg *engine.Registry, st *store.Store, p engine.Pool) engine.Executor {
			return baselines.NewCalvin(reg, st, p, 2, "Calvin-20")
		}},
		{"NODO", bank, func(reg *engine.Registry, st *store.Store, p engine.Pool) engine.Executor {
			return baselines.NewNODO(reg, st, p)
		}},
		{"SEQ", bank, func(reg *engine.Registry, st *store.Store, p engine.Pool) engine.Executor {
			return baselines.NewSEQWithPool(reg, st, p)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stT, stV := tc.fx.store(), tc.fx.store()
			threaded := tc.new(tc.fx.reg, stT, engine.NewThreadPool(4))
			virtual := tc.new(tc.fx.reg, stV, engine.NewVirtualPool(4))
			carried := 0
			for i, b := range tc.fx.batches {
				rt, err := threaded.ExecuteBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				rv, err := virtual.ExecuteBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if rt.Aborts != rv.Aborts || rt.FailRound != rv.FailRound || len(rt.Outcomes) != len(rv.Outcomes) {
					t.Fatalf("batch %d: threads aborts=%d rounds=%d outcomes=%d, virtual aborts=%d rounds=%d outcomes=%d",
						i, rt.Aborts, rt.FailRound, len(rt.Outcomes), rv.Aborts, rv.FailRound, len(rv.Outcomes))
				}
				if c, ok := threaded.(*baselines.Calvin); ok {
					if pv := virtual.(*baselines.Calvin).Pending(); c.Pending() != pv {
						t.Fatalf("batch %d: carried over %d on threads, %d on virtual workers", i, c.Pending(), pv)
					}
					carried += c.Pending()
				}
				if rt.VirtualMakespan != 0 || (len(b) > 0 && rv.VirtualMakespan <= 0) {
					t.Fatalf("batch %d: makespan threads=%v virtual=%v", i, rt.VirtualMakespan, rv.VirtualMakespan)
				}
			}
			if tc.name == "Calvin" && carried == 0 {
				t.Fatal("Calvin never carried a transaction over: the comparison is vacuous")
			}
			if stT.StateHash(stT.Epoch()) != stV.StateHash(stV.Epoch()) {
				t.Fatal("state diverged between the threaded and the virtual pool")
			}
		})
	}
}
