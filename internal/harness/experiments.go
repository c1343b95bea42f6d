package harness

import (
	"fmt"
	"time"

	"prognosticator/internal/baselines"
	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/store"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// Predefined systems of §IV-B. Calvin-100/Calvin-200 translate the paper's
// N ms reconnaissance lead into batch epochs at the 10 ms batch interval.

// PrognosticatorSystem returns the engine under a named variant config.
func PrognosticatorSystem(name string, cfg engine.Config) System {
	return System{Name: name, New: func(reg *engine.Registry, st *store.Store, pool engine.Pool) engine.Executor {
		return engine.NewWithPool(reg, st, cfg, pool)
	}}
}

// CalvinSystem returns the Calvin baseline with the given staleness epochs.
func CalvinSystem(name string, stalenessEpochs uint64) System {
	return System{Name: name, New: func(reg *engine.Registry, st *store.Store, pool engine.Pool) engine.Executor {
		return baselines.NewCalvin(reg, st, pool, stalenessEpochs, name)
	}}
}

// NODOSystem returns the NODO baseline.
func NODOSystem() System {
	return System{Name: "NODO", New: func(reg *engine.Registry, st *store.Store, pool engine.Pool) engine.Executor {
		return baselines.NewNODO(reg, st, pool)
	}}
}

// SEQSystem returns the sequential baseline.
func SEQSystem() System {
	return System{Name: "SEQ", New: func(reg *engine.Registry, st *store.Store, pool engine.Pool) engine.Executor {
		return baselines.NewSEQWithPool(reg, st, pool)
	}}
}

// ComparisonSystems returns the §IV-B line-up: MQ-MF, MQ-SF, Calvin-100,
// Calvin-200, NODO, SEQ.
func ComparisonSystems() []System {
	return []System{
		PrognosticatorSystem("MQ-MF", engine.Config{Queue: engine.QueueMulti, Fail: engine.FailReenqueue}),
		PrognosticatorSystem("MQ-SF", engine.Config{Queue: engine.QueueMulti, Fail: engine.FailSequential}),
		CalvinSystem("Calvin-100", 10),
		CalvinSystem("Calvin-200", 20),
		NODOSystem(),
		SEQSystem(),
	}
}

// VariantSystems returns the eight §IV-C Prognosticator variants:
// {MQ,1Q} x {SF,MF} x {SE,R}.
func VariantSystems() []System {
	var out []System
	for _, q := range []engine.QueueMode{engine.QueueMulti, engine.QueueSingle} {
		for _, f := range []engine.FailMode{engine.FailSequential, engine.FailReenqueue} {
			for _, p := range []engine.PrepareMode{engine.PrepareSE, engine.PrepareRecon} {
				cfg := engine.Config{Queue: q, Fail: f, Prepare: p}
				out = append(out, PrognosticatorSystem(cfg.VariantName(), cfg))
			}
		}
	}
	return out
}

// TPCCWorkload builds the TPC-C workload at the given warehouse count (the
// paper's contention knob: 100 low, 10 medium, 1 high).
func TPCCWorkload(cfg tpcc.Config) (Workload, error) {
	reg, err := engine.NewRegistry(tpcc.Schema(), tpcc.Programs(cfg)...)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:     fmt.Sprintf("TPC-C/%dWH", cfg.Warehouses),
		Registry: reg,
		NewStore: func() *store.Store {
			st := store.New()
			tpcc.Populate(st, cfg)
			return st
		},
		NewGen: func(seed int64) RequestGen { return tpcc.NewGenerator(cfg, seed) },
	}, nil
}

// RUBiSWorkload builds the RUBiS-C workload.
func RUBiSWorkload(cfg rubis.Config) (Workload, error) {
	reg, err := engine.NewRegistry(rubis.Schema(), rubis.Programs(cfg)...)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:     "RUBiS-C",
		Registry: reg,
		NewStore: func() *store.Store {
			st := store.New()
			rubis.Populate(st, cfg)
			return st
		},
		NewGen: func(seed int64) RequestGen { return rubis.NewGenerator(cfg, seed) },
	}, nil
}

// ComparisonRow is one bar of Fig. 3 / Fig. 4.
type ComparisonRow struct {
	Workload   string
	System     string
	Throughput float64
	AbortPct   float64
	BatchSize  int
	P99        time.Duration
}

// RunComparison sweeps every system over every workload (Fig. 3 = TPC-C at
// three contention levels; Fig. 4 = RUBiS-C).
func RunComparison(systems []System, workloads []Workload, opts Options) ([]ComparisonRow, error) {
	var rows []ComparisonRow
	for _, wl := range workloads {
		for _, sys := range systems {
			sw, err := MaxSustainable(sys, wl, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ComparisonRow{
				Workload: wl.Name, System: sys.Name,
				Throughput: sw.Best.Throughput, AbortPct: sw.Best.AbortPct,
				BatchSize: sw.Best.BatchSize, P99: sw.Best.P99,
			})
		}
	}
	return rows, nil
}

// VariantRow is one bar of Fig. 5 (throughput plus time breakdown).
type VariantRow struct {
	Workload    string
	Variant     string
	Throughput  float64
	MeanPrepare time.Duration
	MeanReexec  time.Duration
	AbortPct    float64
}

// RunVariants sweeps the eight Prognosticator variants (Fig. 5).
func RunVariants(workloads []Workload, opts Options) ([]VariantRow, error) {
	var rows []VariantRow
	for _, wl := range workloads {
		for _, sys := range VariantSystems() {
			sw, err := MaxSustainable(sys, wl, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, VariantRow{
				Workload: wl.Name, Variant: sys.Name,
				Throughput:  sw.Best.Throughput,
				MeanPrepare: sw.Best.MeanPrepare,
				MeanReexec:  sw.Best.MeanReexec,
				AbortPct:    sw.Best.AbortPct,
			})
		}
	}
	return rows, nil
}

// TableIRow is one row of the paper's Table I: the cost of the SE analysis
// of an update transaction, with and without the optimizations.
type TableIRow struct {
	Name           string
	StatesExplored int
	TotalStates    float64
	Depth          int
	DepthMax       int
	UniqueKeySets  int
	IndirectKeys   int
	MemOpt         uint64
	MemUnopt       uint64
	TimeOpt        time.Duration
	TimeUnopt      time.Duration
	// Extrapolated marks unoptimized columns scaled from a truncated run
	// (the paper's "~35 days" case).
	Extrapolated bool
}

// analyzeRow runs the optimized + unoptimized analysis of one program.
func analyzeRow(name string, prog *lang.Program, fixed map[string]value.Value) (TableIRow, error) {
	prof, err := symexec.Measure(prog, fixed)
	if err != nil {
		return TableIRow{}, fmt.Errorf("harness: table I %s: %w", name, err)
	}
	row := TableIRow{
		Name:           name,
		StatesExplored: prof.Stats.StatesExplored,
		TotalStates:    prof.Stats.TotalStates,
		Depth:          prof.Stats.Depth,
		DepthMax:       prof.Stats.DepthMax,
		UniqueKeySets:  prof.Stats.UniqueKeySets,
		IndirectKeys:   prof.Stats.IndirectKeys,
		MemOpt:         prof.Stats.MemoryBytes,
		MemUnopt:       prof.Stats.MemoryBytesUnopt,
		TimeOpt:        prof.Stats.Duration,
		TimeUnopt:      prof.Stats.DurationUnopt,
	}
	if prof.Stats.UnoptTruncated && prof.Stats.StatesUnopt > 0 {
		// Extrapolate the full unoptimized cost from the truncated run's
		// per-state cost, exactly how the paper reports infeasible runs.
		perState := float64(prof.Stats.DurationUnopt) / float64(prof.Stats.StatesUnopt)
		row.TimeUnopt = clampDuration(perState * prof.Stats.TotalStates)
		perStateMem := float64(prof.Stats.MemoryBytesUnopt) / float64(prof.Stats.StatesUnopt)
		row.MemUnopt = clampBytes(perStateMem * prof.Stats.TotalStates)
		row.Extrapolated = true
	}
	return row, nil
}

// clampDuration converts extrapolated nanoseconds to a Duration, saturating
// instead of overflowing (newOrder's 2^46-state extrapolation exceeds
// int64 nanoseconds; the paper's analogue is its "~35 days" estimate).
func clampDuration(ns float64) time.Duration {
	const maxDur = float64(1<<63 - 1)
	if ns >= maxDur {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(ns)
}

func clampBytes(b float64) uint64 {
	const maxBytes = float64(^uint64(0))
	if b >= maxBytes {
		return ^uint64(0)
	}
	return uint64(b)
}

// TableI reproduces the paper's Table I: SE analysis of every update
// transaction in TPC-C (newOrder at 5/10/15 iterations, payment, delivery)
// and RUBiS.
func TableI(tcfg tpcc.Config, rcfg rubis.Config) ([]TableIRow, error) {
	var rows []TableIRow
	for _, iters := range []int64{5, 10, 15} {
		row, err := analyzeRow(fmt.Sprintf("TPC-C: new order (%d iters.)", iters),
			tpcc.NewOrderProg(tcfg), map[string]value.Value{"olCnt": value.Int(iters)})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	row, err := analyzeRow("TPC-C: payment", tpcc.PaymentProg(tcfg), nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	row, err = analyzeRow("TPC-C: delivery", tpcc.DeliveryProg(tcfg), nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	for _, prog := range rubis.UpdatePrograms(rcfg) {
		label := map[string]string{
			"storeBid":     "RUBiS: store bid",
			"storeBuyNow":  "RUBiS: store buy now",
			"storeComment": "RUBiS: store comment",
			"registerUser": "RUBiS: register user",
			"registerItem": "RUBiS: register item",
		}[prog.Name]
		row, err := analyzeRow(label, prog, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ClassCount summarises a registry's transaction classes; used by the docs
// and the profiler to echo the paper's "two ROT, two DT and one IT".
func ClassCount(reg *engine.Registry) map[profile.Class]int {
	out := map[profile.Class]int{}
	for _, p := range reg.Profiles {
		out[p.Class()]++
	}
	return out
}
