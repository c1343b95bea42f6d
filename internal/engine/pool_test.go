package engine_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"prognosticator/internal/baselines"
	"prognosticator/internal/engine"
	"prognosticator/internal/locktable"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/tpcc"
)

// poolFixture is a catalog, a fresh store and the batches to run on it.
type poolFixture struct {
	reg     *engine.Registry
	store   func() *store.Store
	batches [][]engine.Request
}

// poolFixtures returns the bank workload, read-own-write aliasing the
// profiles mispredict (it drives the MF no-progress fallback) and TPC-C on
// one warehouse.
func poolFixtures(t *testing.T) (bank, mispredict, tpccFx poolFixture) {
	t.Helper()
	bank = poolFixture{engine.BankRegistry(t), engine.BankStore, engine.RandomBatches(77, 10, 50)}
	mispredict = poolFixture{engine.FuzzRegistry(t), engine.FuzzStore, engine.FuzzBatches(21, 6, 20)}
	tcfg := tpcc.Config{Warehouses: 1, Items: 40, CustomersPerDistrict: 10, OrderLinesMin: 5, OrderLinesMax: 15}
	treg, err := engine.NewRegistry(tpcc.Schema(), tpcc.Programs(tcfg)...)
	if err != nil {
		t.Fatal(err)
	}
	tpccFx = poolFixture{reg: treg, store: func() *store.Store {
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
	return bank, mispredict, tpccFx
}

// TestPoolIndependence: every executor is one batch body over the pool, so
// the same batches through the threaded and the virtual pool must give the
// same state hash and, batch by batch, the same abort count, fail rounds and
// (Calvin) carried-over transactions — the pool decides when a step runs,
// never what it does.
func TestPoolIndependence(t *testing.T) {
	bank, mispredict, tpccFx := poolFixtures(t)
	type build func(*engine.Registry, *store.Store, engine.Pool) engine.Executor
	eng := func(cfg engine.Config) build {
		return func(reg *engine.Registry, st *store.Store, p engine.Pool) engine.Executor {
			return engine.NewWithPool(reg, st, cfg, p)
		}
	}
	for _, tc := range []struct {
		name string
		fx   poolFixture
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

// recordingPool runs on the pool it wraps and writes down the Seq of every
// exec step it is handed, in the order the step starts.
type recordingPool struct {
	engine.Pool
	mu   *sync.Mutex
	seqs *[]uint64
}

func (p recordingPool) record(exec engine.Step) engine.Step {
	return func(t *engine.Task) (engine.Work, error) {
		p.mu.Lock()
		*p.seqs = append(*p.seqs, t.Req.Seq)
		p.mu.Unlock()
		return exec(t)
	}
}

func (p recordingPool) Lanes(lanes [][]*engine.Task, exec engine.Step, shared []*engine.Task, prep engine.Step, helpers bool) error {
	return p.Pool.Lanes(lanes, p.record(exec), shared, prep, helpers)
}

func (p recordingPool) Round(tasks []*engine.Task, reprep, exec engine.Step, helpers bool, round int) ([]*engine.Task, []locktable.Record, error) {
	return p.Pool.Round(tasks, reprep, p.record(exec), helpers, round)
}

func (p recordingPool) Serial(tasks []*engine.Task, exec engine.Step) error {
	return p.Pool.Serial(tasks, p.record(exec))
}

// TestSingleWorkerDispatchOrder: on one worker, the threaded and the virtual
// pool pop ready tasks in the same order, so they run the exec steps,
// aborted attempts included, in the same Seq sequence.
func TestSingleWorkerDispatchOrder(t *testing.T) {
	bank, mispredict, tpccFx := poolFixtures(t)
	for _, fx := range []struct {
		name string
		poolFixture
	}{{"bank", bank}, {"mispredictions", mispredict}, {"tpcc", tpccFx}} {
		for _, fail := range []engine.FailMode{engine.FailReenqueue, engine.FailSequential} {
			cfg := engine.Config{Fail: fail}
			t.Run(fx.name+"/"+cfg.VariantName(), func(t *testing.T) {
				var mu sync.Mutex
				var threaded, virtual []uint64
				eT := engine.NewWithPool(fx.reg, fx.store(), cfg, recordingPool{engine.NewThreadPool(1), &mu, &threaded})
				eV := engine.NewWithPool(fx.reg, fx.store(), cfg, recordingPool{engine.NewVirtualPool(1), &mu, &virtual})
				aborts := 0
				for i, b := range fx.batches {
					rt, err := eT.ExecuteBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := eV.ExecuteBatch(b); err != nil {
						t.Fatal(err)
					}
					aborts += rt.Aborts
					if !slices.Equal(threaded, virtual) {
						t.Fatalf("batch %d: exec steps ran in different Seq orders\nthreads: %v\nvirtual: %v", i, threaded, virtual)
					}
				}
				if len(threaded) == 0 {
					t.Fatal("no exec step ran")
				}
				t.Logf("%d exec steps, %d aborts", len(threaded), aborts)
			})
		}
	}
}

// TestRoundStepError: an exec step that fails mid-round makes Round return
// its error on both pools, and the threaded pool returns without blocking
// and without leaving a worker goroutine behind.
func TestRoundStepError(t *testing.T) {
	boom := errors.New("boom")
	tasks := func() []*engine.Task {
		var ts []*engine.Task
		for i := 1; i <= 40; i++ {
			keys := []locktable.LockKey{{Key: value.Encoded(fmt.Sprint("k", i%5)), Write: i%3 == 0}}
			ts = append(ts, &engine.Task{
				Req:   engine.Request{Seq: uint64(i)},
				Entry: &locktable.Entry{Seq: uint64(i), Keys: keys},
				Out:   &engine.TxOutcome{},
			})
		}
		return ts
	}
	exec := func(t *engine.Task) (engine.Work, error) {
		if t.Req.Seq == 12 {
			return engine.Work{}, boom
		}
		time.Sleep(100 * time.Microsecond) // others are still running when it fails
		return engine.Work{Reads: 1}, nil
	}
	for _, tc := range []struct {
		name string
		pool engine.Pool
	}{{"threads", engine.NewThreadPool(4)}, {"virtual", engine.NewVirtualPool(4)}} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			errc := make(chan error, 1)
			go func() {
				_, _, err := tc.pool.Round(tasks(), nil, exec, false, 0)
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, boom) {
					t.Fatalf("Round returned %v, want the step's error", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Round blocked after a step failed")
			}
			// The goroutine that called Round is finishing too.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after the round, %d before", n, before)
			}
		})
	}
}
