package tpcc

import (
	"testing"

	"prognosticator/internal/engine"
	"prognosticator/internal/profile"
	"prognosticator/internal/store"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
)

func smallConfig(warehouses int) Config {
	return Config{
		Warehouses: warehouses, Items: 50, CustomersPerDistrict: 20,
		OrderLinesMin: 5, OrderLinesMax: 15,
	}
}

func TestProgramsValidate(t *testing.T) {
	cfg := smallConfig(2)
	schema := Schema()
	for _, p := range Programs(cfg) {
		if err := schema.Validate(p); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestClassificationMatchesPaper(t *testing.T) {
	// §IV: TPC-C consists of two ROT, two DT and one IT.
	cfg := smallConfig(2)
	reg, err := engine.NewRegistry(Schema(), Programs(cfg)...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]profile.Class{
		"newOrder":    profile.ClassDT,
		"payment":     profile.ClassIT,
		"delivery":    profile.ClassDT,
		"orderStatus": profile.ClassROT,
		"stockLevel":  profile.ClassROT,
	}
	for tx, wantClass := range want {
		got, err := reg.Class(tx)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantClass {
			t.Errorf("class(%s) = %v, want %v", tx, got, wantClass)
		}
	}
}

func TestNewOrderProfileShape(t *testing.T) {
	cfg := smallConfig(2)
	prof, err := symexec.Analyze(NewOrderProg(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// One leaf per possible olCnt value (5..15): the loop bound is the
	// only RWS-relevant branch; the quantity and remote-warehouse branches
	// must not fork.
	if got, want := prof.NumLeaves(), cfg.OrderLinesMax-cfg.OrderLinesMin+1; got != want {
		t.Fatalf("leaves = %d, want %d", got, want)
	}
	// Exactly one pivot: the district's nextOId.
	if prof.Stats.IndirectKeys != 1 {
		t.Fatalf("indirect keys = %d, want 1", prof.Stats.IndirectKeys)
	}
	if prof.PivotFreeTraversal() != true {
		t.Fatal("newOrder's tree traversal must not need pivots (only olCnt)")
	}
}

func TestNewOrderFixedItersCollapses(t *testing.T) {
	// Table I's per-iteration rows: with olCnt fixed, the optimized
	// analysis explores a single state while the unoptimized one explodes
	// as 2^olCnt.
	cfg := smallConfig(2)
	// iters=5: the unoptimized run (2 forks per iteration) fits in the
	// comparison budget and must report exactly 2*(2^10-1)+1 states.
	prof, err := symexec.Measure(NewOrderProg(cfg), map[string]value.Value{"olCnt": value.Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	if prof.NumLeaves() != 1 {
		t.Fatalf("leaves = %d, want 1", prof.NumLeaves())
	}
	if prof.Stats.StatesExplored != 1 {
		t.Fatalf("optimized states = %d, want 1", prof.Stats.StatesExplored)
	}
	if want := 2*(1<<10-1) + 1; prof.Stats.StatesUnopt != want {
		t.Fatalf("unoptimized states = %d, want %d", prof.Stats.StatesUnopt, want)
	}
	// iters=10: 2^20 unoptimized states exceed the comparison budget; the
	// run is truncated (the "paper extrapolates" case) but the analytic
	// total still reports the blow-up.
	prof10, err := symexec.Measure(NewOrderProg(cfg), map[string]value.Value{"olCnt": value.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	if !prof10.Stats.UnoptTruncated {
		t.Fatal("unoptimized run should be budget-truncated")
	}
	if prof10.Stats.StatesUnopt < symexec.UnoptComparisonBudget {
		t.Fatalf("unoptimized states = %d, want >= budget", prof10.Stats.StatesUnopt)
	}
	if prof10.Stats.TotalStates < float64(1<<20) {
		t.Fatalf("total states = %v, want >= 2^20", prof10.Stats.TotalStates)
	}
}

func TestDeliveryProfileShape(t *testing.T) {
	// The paper's Table I: delivery has 1024 unique key-sets (one binary
	// "undelivered order exists" decision per district).
	cfg := smallConfig(1)
	prof, err := symexec.Analyze(DeliveryProg(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.NumLeaves(); got != 1024 {
		t.Fatalf("delivery leaves = %d, want 1024", got)
	}
	if got := prof.Stats.UniqueKeySets; got != 1024 {
		t.Fatalf("delivery unique key-sets = %d, want 1024", got)
	}
	if got := prof.Stats.StatesExplored; got != 2047 {
		t.Fatalf("delivery states = %d, want 2047", got)
	}
	if prof.Class() != profile.ClassDT {
		t.Fatalf("delivery class = %v", prof.Class())
	}
	if prof.PivotFreeTraversal() {
		t.Fatal("delivery traversal depends on pivots")
	}
}

func TestPaymentProfileShape(t *testing.T) {
	cfg := smallConfig(2)
	prof, err := symexec.Analyze(PaymentProg(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if prof.NumLeaves() != 1 || prof.Stats.IndirectKeys != 0 {
		t.Fatalf("payment profile: leaves=%d indirect=%d", prof.NumLeaves(), prof.Stats.IndirectKeys)
	}
}

func populateStore(cfg Config) *store.Store {
	st := store.New()
	Populate(st, cfg)
	return st
}

func TestPopulateCounts(t *testing.T) {
	cfg := smallConfig(2)
	st := populateStore(cfg)
	want := cfg.Items + // items
		cfg.Warehouses*(1+cfg.Items+Districts*(1+2*cfg.CustomersPerDistrict))
	if got := st.Len(); got != want {
		t.Fatalf("populated keys = %d, want %d", got, want)
	}
}

func TestEndToEndMixExecutes(t *testing.T) {
	cfg := smallConfig(2)
	reg, err := engine.NewRegistry(Schema(), Programs(cfg)...)
	if err != nil {
		t.Fatal(err)
	}
	st := populateStore(cfg)
	e := engine.New(reg, st, engine.Config{Workers: 4})
	gen := NewGenerator(cfg, 1)
	seq := uint64(0)
	totalNewOrders := 0
	for b := 0; b < 5; b++ {
		var batch []engine.Request
		for i := 0; i < 60; i++ {
			seq++
			tx, inputs := gen.Next()
			if tx == "newOrder" {
				totalNewOrders++
			}
			batch = append(batch, engine.Request{Seq: seq, TxName: tx, Inputs: inputs})
		}
		res, err := e.ExecuteBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			if o.Done.IsZero() {
				t.Fatalf("uncommitted outcome %+v", o)
			}
		}
	}
	// Every committed newOrder advanced some district's nextOId; the total
	// of (nextOId-1) across districts must equal the committed newOrders.
	var orders int64
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= Districts; d++ {
			rec, _ := st.Get(st.Epoch(), value.NewKey(TDistrict, value.Int(int64(w)), value.Int(int64(d))))
			f, _ := rec.Field("nextOId")
			orders += f.MustInt() - 1
		}
	}
	if orders != int64(totalNewOrders) {
		t.Fatalf("district counters show %d orders, want %d", orders, totalNewOrders)
	}
}

// TestDeterminismTPCC: the flagship workload must satisfy the replica
// determinism property across worker counts and variants.
func TestDeterminismTPCC(t *testing.T) {
	cfg := smallConfig(1) // high contention provokes aborts
	reg, err := engine.NewRegistry(Schema(), Programs(cfg)...)
	if err != nil {
		t.Fatal(err)
	}
	makeBatches := func() [][]engine.Request {
		gen := NewGenerator(cfg, 99)
		var out [][]engine.Request
		seq := uint64(0)
		for b := 0; b < 4; b++ {
			var batch []engine.Request
			for i := 0; i < 50; i++ {
				seq++
				tx, inputs := gen.Next()
				batch = append(batch, engine.Request{Seq: seq, TxName: tx, Inputs: inputs})
			}
			out = append(out, batch)
		}
		return out
	}
	batches := makeBatches()
	var first uint64
	firstAborts := -1
	for _, workers := range []int{1, 4, 8} {
		st := populateStore(cfg)
		e := engine.New(reg, st, engine.Config{Workers: workers})
		aborts := 0
		for _, b := range batches {
			res, err := e.ExecuteBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			aborts += res.Aborts
		}
		h := st.StateHash(st.Epoch())
		if firstAborts < 0 {
			first, firstAborts = h, aborts
			continue
		}
		if h != first {
			t.Fatalf("TPC-C state diverged with %d workers", workers)
		}
		if aborts != firstAborts {
			t.Fatalf("TPC-C aborts diverged: %d vs %d", aborts, firstAborts)
		}
	}
}

func TestDeliveryActuallyDelivers(t *testing.T) {
	cfg := smallConfig(1)
	reg, err := engine.NewRegistry(Schema(), Programs(cfg)...)
	if err != nil {
		t.Fatal(err)
	}
	st := populateStore(cfg)
	e := engine.New(reg, st, engine.Config{Workers: 2})
	gen := NewGenerator(cfg, 7)
	// Place one order in district 1.
	no := gen.NewOrderInputs()
	no["wId"] = value.Int(1)
	no["dId"] = value.Int(1)
	if _, err := e.ExecuteBatch([]engine.Request{{Seq: 1, TxName: "newOrder", Inputs: no}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(st.Epoch(), value.NewKey(TNewOrder, value.Int(1), value.Int(1), value.Int(1))); !ok {
		t.Fatal("new-order entry missing after newOrder")
	}
	// Deliver.
	res, err := e.ExecuteBatch([]engine.Request{{Seq: 2, TxName: "delivery",
		Inputs: map[string]value.Value{"wId": value.Int(1), "carrierId": value.Int(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Fatalf("delivery aborted %d times", res.Aborts)
	}
	if _, ok := st.Get(st.Epoch(), value.NewKey(TNewOrder, value.Int(1), value.Int(1), value.Int(1))); ok {
		t.Fatal("new-order entry not removed by delivery")
	}
	order, _ := st.Get(st.Epoch(), value.NewKey(TOrder, value.Int(1), value.Int(1), value.Int(1)))
	if f, _ := order.Field("carrierId"); f.MustInt() != 3 {
		t.Fatalf("order carrier = %v", order)
	}
	dist, _ := st.Get(st.Epoch(), value.NewKey(TDistrict, value.Int(1), value.Int(1)))
	if f, _ := dist.Field("nextDeliveryOId"); f.MustInt() != 2 {
		t.Fatalf("nextDeliveryOId = %v", dist)
	}
}

// TestNewOrderThenDeliveryConflictAborts: a delivery prepared against the
// pre-batch snapshot while a same-batch newOrder changes nextOId on the same
// district must abort and re-execute (the paper's DT abort path on TPC-C).
func TestNewOrderThenDeliveryConflictAborts(t *testing.T) {
	cfg := smallConfig(1)
	reg, err := engine.NewRegistry(Schema(), Programs(cfg)...)
	if err != nil {
		t.Fatal(err)
	}
	st := populateStore(cfg)
	e := engine.New(reg, st, engine.Config{Workers: 4})
	gen := NewGenerator(cfg, 13)
	no := gen.NewOrderInputs()
	no["wId"] = value.Int(1)
	no["dId"] = value.Int(1)
	res, err := e.ExecuteBatch([]engine.Request{
		{Seq: 1, TxName: "newOrder", Inputs: no},
		{Seq: 2, TxName: "delivery", Inputs: map[string]value.Value{
			"wId": value.Int(1), "carrierId": value.Int(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both are DTs on district 1: the delivery (prepared with nextOId=1,
	// i.e. nothing to deliver) sees nextOId=2 after the newOrder commits,
	// fails validation, and on retry delivers the fresh order.
	if res.Aborts < 1 {
		t.Fatalf("aborts = %d, want >= 1", res.Aborts)
	}
	if _, ok := st.Get(st.Epoch(), value.NewKey(TNewOrder, value.Int(1), value.Int(1), value.Int(1))); ok {
		t.Fatal("retried delivery should have consumed the new order")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := smallConfig(2)
	g1 := NewGenerator(cfg, 5)
	g2 := NewGenerator(cfg, 5)
	for i := 0; i < 200; i++ {
		tx1, in1 := g1.Next()
		tx2, in2 := g2.Next()
		if tx1 != tx2 {
			t.Fatalf("tx diverged at %d: %s vs %s", i, tx1, tx2)
		}
		for k, v := range in1 {
			if !in2[k].Equal(v) {
				t.Fatalf("input %s diverged at %d", k, i)
			}
		}
	}
}

func TestGeneratorMixProportions(t *testing.T) {
	cfg := smallConfig(2)
	gen := NewGenerator(cfg, 17)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		tx, _ := gen.Next()
		counts[tx]++
	}
	frac := func(tx string) float64 { return float64(counts[tx]) / n }
	if f := frac("newOrder"); f < 0.41 || f > 0.47 {
		t.Fatalf("newOrder fraction = %v", f)
	}
	if f := frac("payment"); f < 0.41 || f > 0.47 {
		t.Fatalf("payment fraction = %v", f)
	}
	for _, tx := range []string{"delivery", "orderStatus", "stockLevel"} {
		if f := frac(tx); f < 0.025 || f > 0.055 {
			t.Fatalf("%s fraction = %v", tx, f)
		}
	}
}

func TestGeneratorInputsWithinDomains(t *testing.T) {
	cfg := smallConfig(3)
	gen := NewGenerator(cfg, 23)
	progs := map[string]map[string][2]int64{}
	for _, p := range Programs(cfg) {
		doms := map[string][2]int64{}
		for _, prm := range p.Params {
			if prm.Kind.String() == "int" {
				doms[prm.Name] = [2]int64{prm.Lo, prm.Hi}
			}
		}
		progs[p.Name] = doms
	}
	for i := 0; i < 2000; i++ {
		tx, inputs := gen.Next()
		for name, dom := range progs[tx] {
			v, ok := inputs[name]
			if !ok {
				t.Fatalf("%s: missing input %s", tx, name)
			}
			if iv := v.MustInt(); iv < dom[0] || iv > dom[1] {
				t.Fatalf("%s: input %s=%d outside [%d,%d]", tx, name, iv, dom[0], dom[1])
			}
		}
	}
}
