package main

import (
	"math"
	"sort"
	"strings"
	"testing"

	"prognosticator/internal/engine"
)

// exactCounts are the per-layer metrics that must repeat bit for bit on the
// same seed: counts made on the fixed prefix, not timings.
var exactCounts = []string{
	"engine.aborts_per_tx", "engine.fail_rounds_per_batch", "engine.rot_frac", "engine.direct_keys_per_tx",
	"profile.keys_per_tx", "locktable.grants_per_tx", "locktable.key_events_p99",
	"lang.reads_per_tx", "lang.writes_per_tx", "sequencer.bytes_per_tx", "wal.bytes_per_tx", "wal.syncs_per_batch",
}

// clusterOnly are the layers that do work on cluster_tpcc alone; the engine
// rungs (profile, lang, store, value and the lock-table cycle) run on the
// other three.
var clusterOnly = []string{"sequencer.", "wal.", "raft.", "tcpnet.", "memnet.", "flowctl.", "replica.", "cluster."}

func isClusterOnly(name string) bool {
	for _, p := range clusterOnly {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks the benchmark against its own declaration in BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the -seconds default %d", spec.RunSeconds, defaultSeconds)
	}
	var endToEnd, perLayer []string
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)

	all := workloads(true)
	if len(all) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json names %d", len(all), len(spec.Workloads))
	}
	for i, w := range all {
		if w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json names %s", i, w.name, spec.Workloads[i].Name)
		}
		// In parallel: the cluster mostly waits (elections, fsync) while the
		// engine workloads compute. Smoke timings mean nothing anyway.
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			smokeWorkload(t, w, endToEnd, perLayer)
		})
	}
}

func smokeWorkload(t *testing.T, w workload, endToEnd, perLayer []string) {
	// One symbolic-execution analysis per workload, not one per run: under
	// the race detector it is most of a smoke run.
	reg, err := w.newRegistry()
	if err != nil {
		t.Fatal(err)
	}
	w.newRegistry = func() (*engine.Registry, error) { return reg, nil }
	tmp := t.TempDir()
	o := options{seed: 3, seconds: 0.05, smoke: true, workers: 2, outDir: tmp, tmpDir: tmp}
	run := func(trace bool, want []string) *result {
		o.trace = trace
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("trace=%v: failed %d, problems %v", trace, res.Failed, res.Problems)
		}
		// Measured and absent metrics together are the declared set, and a
		// metric is absent exactly where its layer does no work.
		var got []string
		for n := range res.Metrics {
			got = append(got, n)
		}
		for n := range res.absent {
			got = append(got, n)
		}
		sort.Strings(got)
		if !equal(got, want) {
			t.Errorf("trace=%v emits %v, BENCHMARK.json declares %v", trace, got, want)
		}
		for n := range res.absent {
			if _, both := res.Metrics[n]; both || isClusterOnly(n) == w.cluster {
				t.Errorf("%s is marked absent", n)
			}
		}
		for n, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s is %v", n, m.Value)
			}
			if isClusterOnly(n) && !w.cluster {
				t.Errorf("reports %s, a layer it does not exercise", n)
			}
		}
		return res
	}
	run(false, endToEnd)
	a, b := run(true, perLayer), run(true, perLayer)
	if a.Hash != b.Hash {
		t.Errorf("same seed, prefix state %s then %s", a.Hash, b.Hash)
	}
	for _, n := range exactCounts {
		if a.Metrics[n] != b.Metrics[n] {
			t.Errorf("%s: same seed gave %v then %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
		}
	}
}
