// Benchmark entry points, one per paper table/figure plus micro and
// ablation benches. The figure benches run reduced sweeps suitable for
// `go test -bench`; cmd/benchrunner performs the full-methodology sweeps.
package prognosticator_test

import (
	"fmt"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/harness"
	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/solver"
	"prognosticator/internal/store"
	"prognosticator/internal/sym"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

func benchTPCCConfig(warehouses int) tpcc.Config {
	cfg := tpcc.DefaultConfig(warehouses)
	cfg.Items = 200
	cfg.CustomersPerDistrict = 30
	return cfg
}

func benchOpts() harness.Options {
	return harness.Options{
		BatchInterval: 10 * time.Millisecond,
		P99SLA:        10 * time.Millisecond,
		Batches:       15,
		Warmup:        3,
		Workers:       20,
		Seed:          1,
	}
}

// BenchmarkTableI regenerates the SE-analysis cost table (E1). One
// iteration analyses every update transaction optimized + unoptimized.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.TableI(benchTPCCConfig(10), rubis.Config{Users: 200, Items: 200})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// benchFigPoint measures one (system, workload) pair at a fixed batch size
// and reports virtual throughput and abort rate as custom metrics.
func benchFigPoint(b *testing.B, sys harness.System, wl harness.Workload, size int) {
	b.Helper()
	var tput, abort float64
	for i := 0; i < b.N; i++ {
		pt, err := harness.RunPoint(sys, wl, size, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		tput, abort = pt.Throughput, pt.AbortPct
	}
	b.ReportMetric(tput, "vtx/s")
	b.ReportMetric(abort, "abort%")
}

// BenchmarkFig3Throughput regenerates Fig. 3 (E2/E3): the §IV-B system
// line-up on TPC-C at three contention levels, fixed batch size.
func BenchmarkFig3Throughput(b *testing.B) {
	for _, w := range []int{100, 10, 1} {
		wl, err := harness.TPCCWorkload(benchTPCCConfig(w))
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range harness.ComparisonSystems() {
			b.Run(fmt.Sprintf("%dWH/%s", w, sys.Name), func(b *testing.B) {
				benchFigPoint(b, sys, wl, 40)
			})
		}
	}
}

// BenchmarkFig4Throughput regenerates Fig. 4 (E4/E5): RUBiS-C.
func BenchmarkFig4Throughput(b *testing.B) {
	wl, err := harness.RUBiSWorkload(rubis.Config{Users: 300, Items: 300})
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range harness.ComparisonSystems() {
		b.Run(sys.Name, func(b *testing.B) {
			benchFigPoint(b, sys, wl, 40)
		})
	}
}

// BenchmarkFig5Variants regenerates Fig. 5 (E6/E7): the eight
// Prognosticator variants on TPC-C at medium contention.
func BenchmarkFig5Variants(b *testing.B) {
	wl, err := harness.TPCCWorkload(benchTPCCConfig(10))
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range harness.VariantSystems() {
		b.Run(sys.Name, func(b *testing.B) {
			benchFigPoint(b, sys, wl, 40)
		})
	}
}

// BenchmarkAblationLockSharing quantifies the shared-read-grant design
// decision: the same TPC-C batch under reader/writer vs purely exclusive
// key queues (DESIGN.md "Key-exclusive queues").
func BenchmarkAblationLockSharing(b *testing.B) {
	cfg := benchTPCCConfig(100)
	reg, err := engine.NewRegistry(tpcc.Schema(), tpcc.Programs(cfg)...)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name      string
		exclusive bool
	}{{"shared-reads", false}, {"exclusive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var makespan time.Duration
			for i := 0; i < b.N; i++ {
				st := store.New()
				tpcc.Populate(st, cfg)
				sim := engine.NewSim(reg, st, engine.Config{
					Workers: 20, ExclusiveLocks: mode.exclusive,
				})
				gen := tpcc.NewGenerator(cfg, 1)
				batch := make([]engine.Request, 200)
				for j := range batch {
					tx, in := gen.Next()
					batch[j] = engine.Request{Seq: uint64(j + 1), TxName: tx, Inputs: in}
				}
				res, err := sim.ExecuteBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.VirtualMakespan
			}
			b.ReportMetric(float64(makespan.Microseconds()), "vmakespan_µs")
		})
	}
}

// BenchmarkProfileInstantiate measures runtime key-set preparation — the
// work the Queuer (and helping workers) do per transaction.
func BenchmarkProfileInstantiate(b *testing.B) {
	cfg := benchTPCCConfig(10)
	reg, err := engine.NewRegistry(tpcc.Schema(), tpcc.Programs(cfg)...)
	if err != nil {
		b.Fatal(err)
	}
	st := store.New()
	tpcc.Populate(st, cfg)
	snap := st.ViewAt(0)
	gen := tpcc.NewGenerator(cfg, 1)
	for _, tx := range []string{"newOrder", "payment", "delivery"} {
		prof := reg.Profiles[tx]
		var inputs map[string]value.Value
		switch tx {
		case "newOrder":
			inputs = gen.NewOrderInputs()
		case "payment":
			inputs = gen.PaymentInputs()
		default:
			inputs = gen.DeliveryInputs()
		}
		b.Run(tx, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prof.Instantiate(inputs, snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLockTable measures enqueue+release cycles on the deterministic
// lock table.
func BenchmarkLockTable(b *testing.B) {
	lt := locktable.New()
	keys := make([][]locktable.LockKey, 64)
	for i := range keys {
		keys[i] = []locktable.LockKey{
			{Key: value.NewKey("T", value.Int(int64(i))).Encode(), Write: true},
			{Key: value.NewKey("U", value.Int(int64(i%8))).Encode()},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &locktable.Entry{Seq: uint64(i), Keys: keys[i%len(keys)]}
		lt.Enqueue(e)
		lt.Release(e, func(*locktable.Entry) {})
	}
}

// BenchmarkSolver measures path-constraint satisfiability checks of the
// kind the SE engine issues at every fork.
func BenchmarkSolver(b *testing.B) {
	x := sym.NewInput("x", value.KindInt, 1, 100)
	y := sym.NewInput("y", value.KindInt, 1, 100)
	atoms := []sym.Term{
		sym.Bin{Op: lang.OpLt, L: x, R: y},
		sym.Bin{Op: lang.OpGe, L: sym.Bin{Op: lang.OpAdd, L: x, R: y}, R: sym.Const{V: value.Int(50)}},
		sym.Bin{Op: lang.OpNe, L: x, R: sym.Const{V: value.Int(7)}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := solver.Check(atoms); got != solver.Sat {
			b.Fatalf("unexpected %v", got)
		}
	}
}

// BenchmarkStore measures versioned store access.
func BenchmarkStore(b *testing.B) {
	st := store.New()
	rec := value.Record(map[string]value.Value{"v": value.Int(1)})
	for i := int64(0); i < 10000; i++ {
		st.Put(0, value.NewKey("T", value.Int(i)), rec)
	}
	epoch := st.BeginEpoch()
	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Get(epoch, value.NewKey("T", value.Int(int64(i%10000))))
		}
	})
	b.Run("Put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Put(epoch, value.NewKey("T", value.Int(int64(i%10000))), rec)
		}
	})
}

// BenchmarkValueRecord measures the record operations a transaction pays per
// row it touches, on a ten-field row.
func BenchmarkValueRecord(b *testing.B) {
	names := []string{"balance", "city", "credit", "deliveryCnt", "discount", "first", "last", "paymentCnt", "since", "ytdPayment"}
	vals := make([]value.Value, len(names))
	for i := range vals {
		vals[i] = value.Int(int64(i))
	}
	shape := value.NewShape(names...)
	row := shape.Record(vals...)
	b.Run("Record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = shape.Record(vals...)
		}
	})
	b.Run("Field", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink, _ = row.Field(names[i%len(names)])
		}
	})
	b.Run("WithField", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = row.WithField("discount", vals[i%len(vals)])
		}
	})
	b.Run("Hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hash = row.Hash()
		}
	})
}

// Results of the measured calls in BenchmarkValueRecord, kept where the
// compiler cannot drop them.
var (
	sink value.Value
	hash uint64
)

// BenchmarkEngineBatch measures real (thread-parallel) batch execution of
// the TPC-C mix — the wall-clock path used by replicas, as opposed to the
// virtual-time path used by the figures.
func BenchmarkEngineBatch(b *testing.B) {
	cfg := benchTPCCConfig(10)
	reg, err := engine.NewRegistry(tpcc.Schema(), tpcc.Programs(cfg)...)
	if err != nil {
		b.Fatal(err)
	}
	st := store.New()
	tpcc.Populate(st, cfg)
	e := engine.New(reg, st, engine.Config{Workers: 4})
	gen := tpcc.NewGenerator(cfg, 1)
	seq := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]engine.Request, 100)
		for j := range batch {
			seq++
			tx, in := gen.Next()
			batch[j] = engine.Request{Seq: seq, TxName: tx, Inputs: in}
		}
		if _, err := e.ExecuteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
