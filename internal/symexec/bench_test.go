package symexec

import (
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// BenchmarkAnalyzeCatalog times the analysis an engine registry runs at
// boot (AnalyzeProfileOnly): TPC-C's delivery and newOrder, and the whole
// RUBiS catalog.
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
					if _, err := AnalyzeProfileOnly(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
