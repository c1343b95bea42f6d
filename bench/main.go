// Command bench is the repository's wall-clock benchmark: four closed-loop
// workloads over the shipped defaults, end-to-end metrics from an untraced
// run, per-layer metrics from a traced run, and a correctness gate in the
// same command. See README.md.
//
// It is a module of its own (the benchmark has to build from a checkout that
// holds nothing else but the repository's sources), nested under the main
// module's path so that it may import prognosticator/internal/...; run it
// with "bash bench/run.sh" from the repository root or "go run ." from here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"prognosticator/internal/engine"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// procs is the GOMAXPROCS of every run. The reference box gives the benchmark
// two virtual processors of a shared host, and the second is often taken for
// longer than a run: with both in use, the same code ran at 3800 or at 2600
// tx/s on tpcc_high, run by run, and no statistic taken inside a run tells
// the two apart. On one processor the engine's goroutines (queuer, workers,
// replicas) interleave as they would in parallel, outcomes and counts are
// identical, and a run needs no more than what the host always leaves it.
// What two processors buy is measured apart, unbounded: engine.speedup_2p.
const procs = 1

func main() {
	var o options
	var workloadName, jsonPath, scale string
	var selfcheck bool
	flag.StringVar(&workloadName, "workload", "", "run one workload (default: all four, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed window")
	flag.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics and span files instead of end-to-end metrics (also \"-trace 0|1\")")
	flag.StringVar(&scale, "scale", "full", "full, or smoke: tiny data and prefix for the smoke test, whose numbers mean nothing")
	flag.IntVar(&o.workers, "workers", 2, "engine workers per executor; they share the run's one processor")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for span files")
	flag.StringVar(&o.tmpDir, "tmp", ".bench_build/tmp", "directory for WAL, raft and snapshot files of a run")
	flag.StringVar(&jsonPath, "json", "", "also write every metric of the run to this file")
	flag.BoolVar(&selfcheck, "selfcheck", false, "A/A: run the untraced suite twice and fail if any end-to-end metric differs by more than its bound")
	if err := flag.CommandLine.Parse(joinTraceValue(os.Args[1:])); err != nil {
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if scale != "full" && scale != "smoke" {
		fatalf("-scale is full or smoke, not %q", scale)
	}
	o.smoke = scale == "smoke"
	runtime.GOMAXPROCS(procs)
	// Paths are relative to the repository root; "go run ." starts in bench/.
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if err := os.Chdir(".."); err != nil {
			fatalf("%v", err)
		}
	}

	all := workloads(o.smoke)
	if workloadName == "" {
		os.Exit(suite(all, o, scale, jsonPath, selfcheck))
	}
	if selfcheck {
		fatalf("-selfcheck runs every workload; drop -workload")
	}
	for _, w := range all {
		if w.name != workloadName {
			continue
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(res)
		if jsonPath != "" {
			writeReport(jsonPath, o, map[string][]*result{runKind(o.trace): {res}}, nil)
		}
		// The last line of standard output is the result object.
		line, err := json.Marshal(res.line())
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	fatalf("unknown workload %q", workloadName)
}

// resultLine is what the benchmark's driver reads from the last line of a run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line carries every declared metric of the run's kind: a per-layer metric of
// a layer this workload does not exercise reads 0 there and nowhere else.
func (r *result) line() resultLine {
	metrics := map[string]metric{}
	for n, unit := range r.absent {
		metrics[n] = metric{Unit: unit}
	}
	for n, m := range r.Metrics {
		metrics[n] = m
	}
	return resultLine{r.Correct, r.Attempted, r.Failed, metrics}
}

// joinTraceValue rewrites "-trace 1" as "-trace=1": the benchmark driver
// passes the value as an argument of its own, which a boolean flag would take
// for the first positional argument.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func runKind(trace bool) string {
	if trace {
		return "traced"
	}
	return "untraced"
}

// printResult prints every metric as "workload metric value unit".
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%s %s %.6g %s\n", res.Workload, n, m.Value, m.Unit)
	}
	// failed_frac is the sixth end-to-end metric. It is not among
	// BENCHMARK.json's bounded metrics, which may never read 0; the result
	// line carries it as "failed" of "attempted", and any failure fails the run.
	fmt.Printf("%s failed_frac %.6g frac\n", res.Workload, per(float64(res.Failed), float64(res.Attempted)))
	fmt.Printf("%s batch_ms.samples %d count\n", res.Workload, res.Samples)
	if res.TermChanges != 0 {
		fmt.Printf("%s INVALID %d leader changes in the timed window: discard the timings and run again\n", res.Workload, res.TermChanges)
	}
	fmt.Printf("%s prefix_state_hash %s hex\n", res.Workload, res.Hash)
	for _, p := range res.Problems {
		fmt.Printf("%s FAILED %s\n", res.Workload, p)
	}
}

// suite runs every workload untraced (twice in a row with selfcheck), then traced,
// prints the cost-model table, and returns the exit code. Each run is a
// process of its own, as under the benchmark's driver: set-up time and the
// collector's state are those of a cold start, not of the run before.
func suite(all []workload, o options, scale, jsonPath string, selfcheck bool) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	runs := map[string][]*result{}
	code := 0
	one := func(kind string, trace bool, w workload) {
		tmp := filepath.Join(o.tmpDir, "report-"+w.name+".json")
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace="+fmt.Sprint(trace), "-scale", scale, "-workers", fmt.Sprint(o.workers),
			"-out", o.outDir, "-tmp", o.tmpDir, "-json", tmp)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// A run that fails a check exits 1 after writing its report; only
		// a run that could not finish writes none.
		runErr := cmd.Run()
		data, err := os.ReadFile(tmp)
		if err != nil {
			fatalf("%s: %v", w.name, runErr)
		}
		os.Remove(tmp)
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			fatalf("%s: %v", tmp, err)
		}
		res := rep.Runs[runKind(trace)][0]
		if !res.Correct {
			code = 1
		}
		runs[kind] = append(runs[kind], res)
	}
	// The two runs of an A/A pair follow each other: the shared host's speed
	// drifts over minutes, and a pair set apart by the rest of the suite
	// would measure that drift.
	for _, w := range all {
		one("untraced", false, w)
		if selfcheck {
			one("untraced_again", false, w)
		}
	}
	var diffs []aaDiff
	if selfcheck {
		spec, err := loadSpec("BENCHMARK.json")
		if err != nil {
			fatalf("%v", err)
		}
		var ok bool
		if diffs, ok = compareAA(spec, runs["untraced"], runs["untraced_again"]); !ok {
			code = 1
		}
	}
	for _, w := range all {
		one("traced", true, w)
	}
	costModelTable(runs["traced"])
	if jsonPath != "" {
		writeReport(jsonPath, o, runs, diffs)
	}
	return code
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads: the
// declared metric names and the end-to-end regression bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

type aaDiff struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// compareAA reports, per workload and end-to-end metric, how far two runs of
// the same code are apart, against the metric's bound.
func compareAA(spec *benchSpec, a, b []*result) ([]aaDiff, bool) {
	var out []aaDiff
	ok := true
	for i := range a {
		for _, m := range spec.EndToEnd {
			va, vb := a[i].Metrics[m.Name].Value, b[i].Metrics[m.Name].Value
			d := aaDiff{Workload: a[i].Workload, Metric: m.Name, A: va, B: vb, Bound: m.Bound,
				RelDiff: math.Abs(va-vb) / math.Min(va, vb)}
			d.Within = d.RelDiff <= m.Bound
			ok = ok && d.Within
			out = append(out, d)
		}
	}
	fmt.Println("A/A: two runs of the same binary")
	for _, d := range out {
		verdict := "within"
		if !d.Within {
			verdict = "EXCEEDS"
		}
		fmt.Printf("%s %s %.6g vs %.6g: %.1f%% apart, bound %.0f%% — %s\n", d.Workload, d.Metric, d.A, d.B, 100*d.RelDiff, 100*d.Bound, verdict)
	}
	return out, ok
}

// costModelTable sets the measured costs beside engine.DefaultCostModel, the
// asserted costs behind every virtual-time figure in EXPERIMENTS.md. Report
// only: the model is not edited here.
func costModelTable(traced []*result) {
	cm := engine.DefaultCostModel()
	fmt.Println("measured cost vs engine.DefaultCostModel (us)")
	fmt.Printf("%-14s %10s %10s %12s %10s\n", "workload", "PerRead", "PerWrite", "PrepareBase", "PerTx")
	fmt.Printf("%-14s %10.2f %10.2f %12.2f %10.2f\n", "model", us(cm.PerRead), us(cm.PerWrite), us(cm.PrepareBase), us(cm.PerTx))
	for _, r := range traced {
		if _, ok := r.Metrics["lang.exec_us_per_tx"]; !ok {
			continue // the cluster workload does not climb the engine rungs
		}
		m := func(n string) float64 { return r.Metrics[n].Value }
		// Per-transaction dispatch: what an execution costs beyond its reads
		// and writes — interpreter time less the store gets it made, plus the
		// lock-table cycle.
		perTx := m("lang.exec_us_per_tx") - m("lang.reads_per_tx")*m("store.get_ns")/1e3 + m("locktable.cycle_us_per_tx")
		fmt.Printf("%-14s %10.2f %10.2f %12.2f %10.2f\n", r.Workload, m("store.get_ns")/1e3, m("store.put_ns")/1e3, m("profile.instantiate_us_per_tx"), perTx)
	}
}

// report is every metric of one or more runs with what is needed to compare
// them to others: core count, Go version, commit and flags.
type report struct {
	Date      string               `json:"date"`
	NumCPU    int                  `json:"nproc"`
	GoVersion string               `json:"go_version"`
	Commit    string               `json:"commit"`
	Flags     []string             `json:"flags"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Workers   int                  `json:"workers"`
	Notes     []string             `json:"notes"`
	Runs      map[string][]*result `json:"runs"`
	AA        []aaDiff             `json:"aa,omitempty"`
}

func writeReport(path string, o options, runs map[string][]*result, diffs []aaDiff) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	rep := report{
		Date: time.Now().UTC().Format(time.RFC3339), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit, Flags: os.Args[1:], Seed: o.seed, Seconds: o.seconds, Workers: o.workers,
		Notes: []string{
			"closed loop; memnet with no injected message delay, so consensus latency is processor time only",
			"fsync is the sandbox file system's, not a device's",
			"end-to-end metrics come from untraced runs, per-layer metrics from traced runs",
			"commit is the parent of the change that holds this file",
		},
		Runs: runs, AA: diffs,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
}
