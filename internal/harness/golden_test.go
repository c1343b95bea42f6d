package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"prognosticator/internal/store"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/virtual_golden.json from the current code")

// goldenPoint is one pinned virtual-time measurement.
type goldenPoint struct {
	Throughput  float64
	P99         time.Duration
	Mean        time.Duration
	AbortPct    float64
	MeanPrepare time.Duration
	MeanReexec  time.Duration
	StateHash   string
}

// TestVirtualGolden pins the virtual-time figures — and the store state
// behind them — of the six comparison systems and the eight variants on a
// tiny high-contention TPC-C and on RUBiS, to the nanosecond. The batch
// count crosses two GC ticks and both Calvin staleness windows.
func TestVirtualGolden(t *testing.T) {
	const path = "testdata/virtual_golden.json"
	tp, err := TPCCWorkload(tinyTPCC(1))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RUBiSWorkload(tinyRUBiS())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		BatchInterval: 10 * time.Millisecond, P99SLA: 10 * time.Millisecond,
		Batches: 32, Warmup: 4, Workers: 8, Seed: 7,
	}
	got := map[string]goldenPoint{}
	for _, wl := range []Workload{tp, rb} {
		for lineup, systems := range map[string][]System{
			"comparison": ComparisonSystems(), "variant": VariantSystems(),
		} {
			for _, sys := range systems {
				var st *store.Store
				traced := wl
				traced.NewStore = func() *store.Store { st = wl.NewStore(); return st }
				pt, err := RunPoint(sys, traced, 24, opts)
				if err != nil {
					t.Fatal(err)
				}
				got[wl.Name+"|"+lineup+"|"+sys.Name] = goldenPoint{
					Throughput: pt.Throughput, P99: pt.P99, Mean: pt.Mean, AbortPct: pt.AbortPct,
					MeanPrepare: pt.MeanPrepare, MeanReexec: pt.MeanReexec,
					StateHash: fmt.Sprintf("%016x", st.StateHash(st.Epoch())),
				}
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenPoint{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("measured %d points, golden file pins %d", len(got), len(want))
	}
	for key, w := range want {
		if g := got[key]; g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", key, g, w)
		}
	}
}
