package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/replica"
	"prognosticator/internal/store"
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	workers int
	outDir  string // span files of traced runs
	tmpDir  string // WAL, raft and snapshot directories of a run
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. With tracing off Metrics holds the
// end-to-end metrics, with tracing on the per-layer metrics.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"` // transactions submitted in the timed window
	Failed    int    `json:"failed"`
	Samples   int    `json:"samples"` // batch latencies behind p50/p95
	Hash      string `json:"prefix_state_hash"`
	// TermChanges counts leader changes of the cluster in the timed window.
	TermChanges int               `json:"term_changes"`
	Problems    []string          `json:"problems,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// absent maps each per-layer metric of a layer this workload does not
	// exercise to its unit. Only the result line shows them, as 0.
	absent map[string]string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// layer returns the setter for the metrics of layers that only some workloads
// exercise: on the others it records the metric as absent.
func (r *result) layer(exercised bool) func(name string, v float64, unit string) {
	if exercised {
		return r.set
	}
	return func(name string, _ float64, unit string) { r.absent[name] = unit }
}

func (r *result) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// golden pins, per workload, the state hash after the fixed prefix for seed 1
// at full scale: a change in inputs or in what the engine computes shows even
// when the engine still agrees with its own Workers:1 replay.
//
//go:embed golden.json
var goldenJSON []byte

// A full-scale run sets the system up at least setupRuns times, and goes on
// up to maxSetupRuns times while the set-ups together took less than
// setupBudget: a 60 ms set-up (rubis_browse) is too short a sample to take
// only three of. setup_s is the median. The stores of the extra set-ups
// become the replay stores.
const (
	setupRuns    = 3
	maxSetupRuns = 9
	setupBudget  = time.Second
)

// run is the state of one workload run.
type run struct {
	w   workload
	o   options
	dir string
	tr  *tracer // nil unless tracing
	res *result

	reg    *engine.Registry
	sys    system
	closed bool
	execs  []*timedExec   // traced runs: one per executor of the system
	spare  []*store.Store // populated, unused stores left over from set-up
}

// freshStore returns a store in the workload's initial state.
func (r *run) freshStore() *store.Store {
	if n := len(r.spare); n > 0 {
		st := r.spare[n-1]
		r.spare = r.spare[:n-1]
		return st
	}
	st := store.New()
	r.w.populate(st)
	return st
}

// setup builds the whole system once: registry (symbolic-execution analysis
// of every transaction), populated store(s), and for the cluster the boot up
// to the first elected leader.
func (r *run) setup(i int) (*engine.Registry, system, *store.Store, error) {
	reg, err := r.w.newRegistry()
	if err != nil {
		return nil, nil, nil, err
	}
	// Only the first set-up's system runs the workload, so only it is wrapped.
	var wrap func(int, engine.Executor) engine.Executor
	if r.tr != nil && i == 0 {
		wrap = func(n int, exec engine.Executor) engine.Executor {
			name := "engine.batch"
			if r.w.cluster {
				name = fmt.Sprintf("replica.exec[%d]", n)
			}
			te := &timedExec{inner: exec, tr: r.tr, name: name}
			r.execs = append(r.execs, te)
			return te
		}
	}
	if r.w.cluster {
		sys, err := newCluster(reg, r.w, r.o, filepath.Join(r.dir, fmt.Sprintf("cluster-%d", i)), wrap)
		if err != nil {
			return nil, nil, nil, err
		}
		return reg, sys, nil, nil
	}
	st := store.New()
	r.w.populate(st)
	var exec engine.Executor = engine.New(reg, st, engine.Config{Workers: r.o.workers})
	if wrap != nil {
		exec = wrap(0, exec)
	}
	return reg, &engineSystem{exec: exec, st: st}, st, nil
}

// replay runs the batches through an executor over a fresh store and returns
// the elapsed time, the final state hash and the store.
func (r *run) replay(exec func(*store.Store) engine.Executor, batches [][]engine.Request) (time.Duration, uint64, *store.Store, error) {
	st := r.freshStore()
	sys := &engineSystem{exec: exec(st), st: st}
	runtime.GC() // each replay starts from the same collector state
	t0 := time.Now()
	for _, b := range batches {
		if err := sys.submit(b); err != nil {
			return 0, 0, nil, err
		}
	}
	d := time.Since(t0)
	h, _ := sys.stateHash()
	return d, h, st, nil
}

func runWorkload(w workload, o options) (*result, error) {
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmpDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{w: w, o: o, dir: dir, res: &result{Workload: w.name, Metrics: map[string]metric{}, absent: map[string]string{}}}
	if o.trace {
		r.tr = newTracer()
	}
	err = r.measure()
	r.closeSystem()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.res.Correct = len(r.res.Problems) == 0 && r.res.Failed == 0
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(o.outDir, "trace_"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// closeSystem stops the system under test once.
func (r *run) closeSystem() {
	if r.sys != nil && !r.closed {
		r.closed = true
		r.sys.close()
	}
}

func (r *run) measure() error {
	w, o, res := r.w, r.o, r.res

	// Set-up, several times: one set-up is a single sample of a second or less.
	var setups []float64
	var setupTotal time.Duration
	enough := func(done int) bool {
		if o.smoke {
			return done == 1
		}
		return done == maxSetupRuns || done >= setupRuns && setupTotal >= setupBudget
	}
	for i := 0; !enough(i); i++ {
		t0 := time.Now()
		reg, sys, st, err := r.setup(i)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setupTotal += d
		setups = append(setups, d.Seconds())
		if i == 0 {
			r.reg, r.sys = reg, sys
			continue
		}
		sys.close()
		if st != nil {
			r.spare = append(r.spare, st)
		}
	}

	// The fixed prefix: warm-up and the state check.
	gen := w.batchGen(o.seed)
	prefix := make([][]engine.Request, w.prefix)
	for i := range prefix {
		prefix[i] = gen()
	}
	for i, b := range prefix {
		if err := r.sys.submit(b); err != nil {
			return fmt.Errorf("prefix batch %d: %w", i, err)
		}
	}
	hash, err := r.sys.stateHash()
	if err != nil {
		return fmt.Errorf("after prefix: %w", err)
	}
	res.Hash = fmt.Sprintf("%016x", hash)
	_, refHash, _, err := r.replay(func(st *store.Store) engine.Executor {
		return engine.New(r.reg, st, engine.Config{Workers: 1})
	}, prefix)
	if err != nil {
		return fmt.Errorf("Workers:1 replay: %w", err)
	}
	if refHash != hash {
		res.problemf("state after prefix %016x differs from the Workers:1 replay %016x", hash, refHash)
	}
	if o.seed == 1 && !o.smoke {
		var golden map[string]string
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			return fmt.Errorf("golden.json: %w", err)
		}
		if want := golden[w.name]; want != res.Hash {
			res.problemf("state after prefix %s differs from golden %q", res.Hash, want)
		}
	}
	var ladder *ladderResult
	if o.trace {
		if ladder, err = r.ladder(prefix, hash); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	r.spare = nil // from here on only the system's own stores are live

	// Live heap at a point of fixed work: after the prefix, which is the same
	// batches on every run, where the end of the window is not.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	// The timed window.
	var term0 uint64
	if cs, ok := r.sys.(*clusterSystem); ok {
		if term0, err = cs.leaderTerm(); err != nil {
			return err
		}
	}
	for _, te := range r.execs {
		te.mu.Lock()
		te.stats = execStats{}
		te.mu.Unlock()
	}
	win := r.window()
	res.Attempted, res.Failed, res.Samples = win.attempted, win.failed, len(win.latMs)
	for _, err := range win.errs {
		res.problemf("submit: %v", err)
	}
	if res.Samples == 0 {
		return fmt.Errorf("no batch completed in %.1fs", o.seconds)
	}

	// Final checks and tear-down.
	var recovery time.Duration
	if cs, ok := r.sys.(*clusterSystem); ok {
		if recovery, err = r.checkCluster(cs, w.prefix+win.batchesOK, term0); err != nil {
			return err
		}
	}

	if !o.trace {
		sort.Float64s(setups)
		res.set("setup_s", setups[len(setups)/2], "s")
		res.set("tx_per_s", float64(win.attempted-win.failed)/win.wall.Seconds(), "1/s")
		res.set("batch_ms_p50", percentile(win.latMs, 50), "ms")
		res.set("batch_ms_p95", percentile(win.latMs, 95), "ms")
		res.set("live_heap_mb", float64(live.HeapAlloc)/(1<<20), "MB")
		return nil
	}
	r.layerMetrics(ladder, win, recovery)
	return nil
}

// windowResult is what the closed-loop clients saw in the timed window.
type windowResult struct {
	latMs             []float64
	attempted, failed int // transactions
	batchesOK         int
	wall              time.Duration
	errs              []error
	before, after     runtime.MemStats // around the window
}

// window runs the workload's closed-loop clients for o.seconds. Each client
// draws its batches from its own seeded stream, distinct from the prefix's.
func (r *run) window() *windowResult {
	w, o := r.w, r.o
	out := &windowResult{}
	runtime.ReadMemStats(&out.before)
	submitName := "engine.submit"
	if w.cluster {
		submitName = "cluster.submit"
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := w.batchGen(o.seed*1000 + int64(c) + 1)
			var lat []float64
			attempted, failed, ok := 0, 0, 0
			var errs []error
			for n := 0; time.Now().Before(deadline) && len(errs) < 3; n++ {
				// Spans of one batch share its number: prefix batches come
				// first, then client c's n-th batch.
				batch := w.prefix + n*w.clients + c + 1
				root := r.tr.start("bench.batch", 0, batch)
				b := gen()
				sp := r.tr.start(submitName, root.id, batch)
				err := r.sys.submit(b)
				d := sp.end()
				root.end()
				attempted += len(b)
				if err != nil {
					failed += len(b)
					errs = append(errs, err)
					continue
				}
				ok++
				lat = append(lat, ms(d))
			}
			mu.Lock()
			out.latMs = append(out.latMs, lat...)
			out.attempted += attempted
			out.failed += failed
			out.batchesOK += ok
			out.errs = append(out.errs, errs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	runtime.ReadMemStats(&out.after)
	return out
}

// checkCluster is the cluster's correctness gate: replicas caught up and
// converged, each applied exactly the batches submitted, no leader change,
// and — after stopping the cluster — replica 0's WAL directory alone rebuilds
// the same state: every acknowledged batch is readable after a restart. It
// returns how long that recovery took.
func (r *run) checkCluster(cs *clusterSystem, submitted int, term0 uint64) (time.Duration, error) {
	res := r.res
	final, err := cs.stateHash()
	if err != nil {
		res.problemf("cluster after window: %v", err)
	}
	for i := 0; i < cs.cl.Size(); i++ {
		if got := cs.cl.ReplicaAt(i).Batches(); got != submitted {
			res.problemf("replica %d applied %d batches, %d were acknowledged", i, got, submitted)
		}
	}
	term1, err := cs.leaderTerm()
	if err != nil {
		return 0, err
	}
	// A leader change fails no operation, so the run stays correct; but its
	// timings are not those of a stable cluster, and it is printed for that.
	res.TermChanges = int(term1 - term0)
	r.closeSystem()
	st := r.freshStore()
	exec := engine.New(r.reg, st, engine.Config{Workers: r.o.workers})
	t0 := time.Now()
	rep, err := replica.RecoverWithSnapshot(cs.cl.WALDir(0), cs.cl.SnapDir(0), exec, st)
	if err != nil {
		return 0, fmt.Errorf("recover replica 0: %w", err)
	}
	recovery := time.Since(t0)
	if h := st.StateHash(st.Epoch()); h != final || rep.Batches != submitted {
		res.problemf("replica 0 recovered %d batches to %016x, live state was %d batches at %016x", rep.Batches, h, submitted, final)
	}
	return recovery, nil
}
