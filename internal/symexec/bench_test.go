package symexec

import (
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// BenchmarkAnalyzeCatalog times the analysis an engine registry runs at
// boot (Analyze): TPC-C's delivery and newOrder, and the whole RUBiS
// catalog.
//
//	go test -run '^$' -bench AnalyzeCatalog -cpu 1 ./internal/symexec
func BenchmarkAnalyzeCatalog(b *testing.B) {
	tp := map[string]*lang.Program{}
	for _, p := range tpcc.Programs(tpcc.DefaultConfig(1)) {
		tp[p.Name] = p
	}
	cases := []struct {
		name  string
		progs []*lang.Program
	}{
		{"tpcc/delivery", []*lang.Program{tp["delivery"]}},
		{"tpcc/newOrder", []*lang.Program{tp["newOrder"]}},
		{"rubis", rubis.Programs(rubis.DefaultConfig())},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range c.progs {
					if _, err := Analyze(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationSEOptimizations measures the analysis of TPC-C newOrder
// (olCnt fixed at 6) with the paper's two optimizations toggled:
// taint-driven concolic execution and subtree pruning.
func BenchmarkAblationSEOptimizations(b *testing.B) {
	cfg := tpcc.DefaultConfig(10)
	cfg.Items = 200
	cfg.CustomersPerDistrict = 30
	prog := tpcc.NewOrderProg(cfg)
	fixed := map[string]value.Value{"olCnt": value.Int(6)}
	for _, mode := range []struct {
		name string
		opts options
	}{
		{"taint+prune", options{useTaint: true, prune: true, fixedInputs: fixed}},
		{"prune-only", options{prune: true, fixedInputs: fixed}},
		{"none", options{fixedInputs: fixed}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analyze(prog, mode.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
