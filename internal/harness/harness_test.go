package harness

import (
	"strings"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/profile"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// Small scales keep the harness tests fast while exercising the full paths.
func tinyTPCC(warehouses int) tpcc.Config {
	return tpcc.Config{
		Warehouses: warehouses, Items: 40, CustomersPerDistrict: 10,
		OrderLinesMin: 5, OrderLinesMax: 15,
	}
}

func tinyRUBiS() rubis.Config { return rubis.Config{Users: 40, Items: 40} }

func TestRunPointTPCC(t *testing.T) {
	wl, err := TPCCWorkload(tinyTPCC(2))
	if err != nil {
		t.Fatal(err)
	}
	sys := PrognosticatorSystem("MQ-MF", engineConfigMQMF())
	pt, err := RunPoint(sys, wl, 8, virtualOpts())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Throughput <= 0 {
		t.Fatalf("throughput = %v", pt.Throughput)
	}
	if pt.P99 <= 0 {
		t.Fatalf("p99 = %v", pt.P99)
	}
	if pt.MeanPrepare <= 0 {
		t.Fatal("prepare time not measured")
	}
}

func TestMaxSustainableFindsAPoint(t *testing.T) {
	wl, err := TPCCWorkload(tinyTPCC(2))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := MaxSustainable(SEQSystem(), wl, virtualOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) == 0 {
		t.Fatal("no points measured")
	}
	if sw.Best.Throughput <= 0 {
		t.Fatalf("best = %+v", sw.Best)
	}
	// Points ramp geometrically.
	for i := 1; i < len(sw.Points); i++ {
		if sw.Points[i].BatchSize <= sw.Points[i-1].BatchSize {
			t.Fatal("batch sizes must grow")
		}
	}
}

func TestComparisonSystemsLineup(t *testing.T) {
	systems := ComparisonSystems()
	names := make([]string, len(systems))
	for i, s := range systems {
		names[i] = s.Name
	}
	want := []string{"MQ-MF", "MQ-SF", "Calvin-100", "Calvin-200", "NODO", "SEQ"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("lineup = %v", names)
	}
}

func TestVariantSystemsGrid(t *testing.T) {
	systems := VariantSystems()
	if len(systems) != 8 {
		t.Fatalf("variants = %d, want 8", len(systems))
	}
	seen := map[string]bool{}
	for _, s := range systems {
		seen[s.Name] = true
	}
	for _, want := range []string{"MQ-SF", "MQ-SF-R", "MQ-MF", "MQ-MF-R", "1Q-SF", "1Q-SF-R", "1Q-MF", "1Q-MF-R"} {
		if !seen[want] {
			t.Fatalf("missing variant %s (have %v)", want, seen)
		}
	}
}

func TestRunComparisonSmall(t *testing.T) {
	wl, err := TPCCWorkload(tinyTPCC(1))
	if err != nil {
		t.Fatal(err)
	}
	systems := []System{
		PrognosticatorSystem("MQ-MF", engineConfigMQMF()),
		SEQSystem(),
	}
	rows, err := RunComparison(systems, []Workload{wl}, virtualOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Fatalf("row %+v has no throughput", r)
		}
	}
	out := RenderComparison("Fig. 3 (smoke)", rows)
	if !strings.Contains(out, "MQ-MF") || !strings.Contains(out, "SEQ") {
		t.Fatalf("render missing systems:\n%s", out)
	}
	csv := ComparisonCSV(rows)
	if !strings.Contains(csv, "TPC-C/1WH,MQ-MF") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
}

func TestTableIShape(t *testing.T) {
	rows, err := TableI(tinyTPCC(2), tinyRUBiS())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 (3 newOrder + payment + delivery + 5 RUBiS)", len(rows))
	}
	byName := map[string]TableIRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Delivery: 1024 key-sets as in the paper.
	if d := byName["TPC-C: delivery"]; d.UniqueKeySets != 1024 {
		t.Fatalf("delivery key-sets = %d", d.UniqueKeySets)
	}
	// newOrder: optimized constant, unoptimized exponential in iterations.
	n5 := byName["TPC-C: new order (5 iters.)"]
	n15 := byName["TPC-C: new order (15 iters.)"]
	if n5.StatesExplored != 1 || n15.StatesExplored != 1 {
		t.Fatalf("optimized states: %d / %d, want 1/1", n5.StatesExplored, n15.StatesExplored)
	}
	if n15.TotalStates <= n5.TotalStates {
		t.Fatal("total states must grow with iterations")
	}
	if !n15.Extrapolated {
		t.Fatal("15-iteration unoptimized run must be extrapolated")
	}
	if n15.TimeUnopt <= n5.TimeUnopt {
		t.Fatal("extrapolated unoptimized time must dwarf the 5-iteration run")
	}
	// Payment: trivial profile, no pivots.
	if p := byName["TPC-C: payment"]; p.IndirectKeys != 0 || p.UniqueKeySets != 1 {
		t.Fatalf("payment row = %+v", p)
	}
	// Every RUBiS update transaction has at least one indirect key.
	for _, name := range []string{"RUBiS: store bid", "RUBiS: store buy now",
		"RUBiS: store comment", "RUBiS: register user", "RUBiS: register item"} {
		if byName[name].IndirectKeys < 1 {
			t.Fatalf("%s indirect keys = %d", name, byName[name].IndirectKeys)
		}
	}
	rendered := RenderTableI(rows)
	if !strings.Contains(rendered, "TPC-C: delivery") || !strings.Contains(rendered, "~") {
		t.Fatalf("render:\n%s", rendered)
	}
	csv := TableICSV(rows)
	if !strings.Contains(csv, "\"TPC-C: payment\"") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestClassCountEchoesPaper(t *testing.T) {
	wl, err := TPCCWorkload(tinyTPCC(2))
	if err != nil {
		t.Fatal(err)
	}
	counts := ClassCount(wl.Registry)
	if counts[profile.ClassROT] != 2 || counts[profile.ClassDT] != 2 || counts[profile.ClassIT] != 1 {
		t.Fatalf("TPC-C classes = %v, want 2 ROT / 2 DT / 1 IT", counts)
	}
}

func TestFormatters(t *testing.T) {
	if fmtBig(2048) != "2048" || fmtBig(2.1e9) != "2.1G" || fmtBig(32768) != "33k" {
		t.Fatal("fmtBig")
	}
	if fmtBytes(512) != "512B" || fmtBytes(2<<20) != "2.0MB" {
		t.Fatal("fmtBytes")
	}
	if fmtDur(0) != "-" || fmtDur(48*time.Hour) != "2.0d" || fmtDur(1500*time.Microsecond) != "1.50ms" {
		t.Fatalf("fmtDur: %s %s %s", fmtDur(0), fmtDur(48*time.Hour), fmtDur(1500*time.Microsecond))
	}
}

// engineConfigMQMF is a test helper returning the default engine variant.
func engineConfigMQMF() engine.Config {
	return engine.Config{Queue: engine.QueueMulti, Fail: engine.FailReenqueue}
}
