package symexec

import (
	"errors"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/value"
)

// progStraight: unconditional read-modify-write; pure IT.
func progStraight() *lang.Program {
	return &lang.Program{
		Name:   "straight",
		Params: []lang.Param{lang.IntParam("k", 0, 9), lang.IntParam("amt", 0, 9)},
		Body: []lang.Stmt{
			lang.GetS("r", "ACC", lang.P("k")),
			lang.SetF("r", "bal", lang.Add(lang.Fld(lang.L("r"), "bal"), lang.P("amt"))),
			lang.PutS("ACC", lang.Key(lang.P("k")), lang.L("r")),
		},
	}
}

// progBranchKey: the branch selects WHICH key is written.
func progBranchKey() *lang.Program {
	return &lang.Program{
		Name:   "branchkey",
		Params: []lang.Param{lang.IntParam("sel", 0, 1)},
		Body: []lang.Stmt{
			lang.IfElse(lang.Eq(lang.P("sel"), lang.C(0)),
				[]lang.Stmt{lang.PutS("T", lang.Key(lang.C(1)), lang.RecE(lang.F("v", lang.C(0))))},
				[]lang.Stmt{lang.PutS("T", lang.Key(lang.C(2)), lang.RecE(lang.F("v", lang.C(0))))},
			),
		},
	}
}

// progBranchValue: the branch only changes the written value (newOrder's
// Algorithm 2 shape).
func progBranchValue() *lang.Program {
	return &lang.Program{
		Name:   "branchval",
		Params: []lang.Param{lang.IntParam("k", 0, 9), lang.IntParam("q", 0, 9)},
		Body: []lang.Stmt{
			lang.GetS("item", "STOCK", lang.P("k")),
			lang.IfElse(lang.Le(lang.Fld(lang.L("item"), "qty"), lang.P("q")),
				[]lang.Stmt{lang.SetF("item", "qty", lang.Sub(lang.Fld(lang.L("item"), "qty"), lang.P("q")))},
				[]lang.Stmt{lang.SetF("item", "qty", lang.Add(lang.Fld(lang.L("item"), "qty"), lang.C(91)))},
			),
			lang.PutS("STOCK", lang.Key(lang.P("k")), lang.L("item")),
		},
	}
}

// progPivotKey: writes to a key derived from a fetched value (classic DT).
func progPivotKey() *lang.Program {
	return &lang.Program{
		Name:   "pivotkey",
		Params: []lang.Param{lang.IntParam("d", 1, 3)},
		Body: []lang.Stmt{
			lang.GetS("dist", "DIST", lang.P("d")),
			lang.Set("oid", lang.Add(lang.Fld(lang.L("dist"), "lastOrderId"), lang.C(1))),
			lang.SetF("dist", "lastOrderId", lang.L("oid")),
			lang.PutS("DIST", lang.Key(lang.P("d")), lang.L("dist")),
			lang.PutS("ORDER", lang.Key(lang.P("d"), lang.L("oid")), lang.RecE(lang.F("ok", lang.C(1)))),
		},
	}
}

// progLoop: writes n items, n symbolic in [lo,hi].
func progLoop(lo, hi int64) *lang.Program {
	return &lang.Program{
		Name: "loopy",
		Params: []lang.Param{
			lang.IntParam("n", lo, hi),
			lang.ListParam("ids", lang.IntParam("", 0, 99), int(hi), "n"),
		},
		Body: []lang.Stmt{
			lang.ForS("i", lang.C(0), lang.P("n"),
				lang.Set("id", lang.Idx(lang.P("ids"), lang.L("i"))),
				lang.PutS("T", lang.Key(lang.L("id")), lang.RecE(lang.F("v", lang.C(0)))),
			),
		},
	}
}

func TestStraightLineProfile(t *testing.T) {
	p, err := Analyze(progStraight())
	if err != nil {
		t.Fatal(err)
	}
	if p.Class() != profile.ClassIT {
		t.Fatalf("class = %v, want IT", p.Class())
	}
	if p.NumLeaves() != 1 {
		t.Fatalf("leaves = %d", p.NumLeaves())
	}
	if p.Stats.StatesExplored != 1 || p.Stats.Depth != 0 {
		t.Fatalf("stats = %+v", p.Stats)
	}
	ks, err := p.Instantiate(map[string]value.Value{"k": value.Int(3), "amt": value.Int(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Reads) != 1 || ks.Reads[0].String() != "ACC/i3" {
		t.Fatalf("reads = %v", ks.Reads)
	}
	if len(ks.Writes) != 1 || ks.Writes[0].String() != "ACC/i3" {
		t.Fatalf("writes = %v", ks.Writes)
	}
}

func TestBranchOnKeyForks(t *testing.T) {
	p, err := Analyze(progBranchKey())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLeaves() != 2 {
		t.Fatalf("leaves = %d, want 2 (branch decides the key)", p.NumLeaves())
	}
	if p.Stats.UniqueKeySets != 2 {
		t.Fatalf("unique key-sets = %d", p.Stats.UniqueKeySets)
	}
	for sel, want := range map[int64]string{0: "T/i1", 1: "T/i2"} {
		ks, err := p.Instantiate(map[string]value.Value{"sel": value.Int(sel)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ks.Writes) != 1 || ks.Writes[0].String() != want {
			t.Fatalf("sel=%d: writes=%v want %s", sel, ks.Writes, want)
		}
	}
}

func TestValueBranchConcolicNoForks(t *testing.T) {
	// With taint: the condition depends only on irrelevant data, so the
	// branch never forks and the profile is a single node.
	p, err := Analyze(progBranchValue())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLeaves() != 1 {
		t.Fatalf("leaves = %d, want 1 (concolic collapse)", p.NumLeaves())
	}
	if p.Stats.StatesExplored != 1 {
		t.Fatalf("states = %d, want 1", p.Stats.StatesExplored)
	}
	// DepthMax still records the conditional the unoptimized run would
	// fork on.
	if p.Stats.DepthMax != 1 {
		t.Fatalf("depthMax = %d, want 1", p.Stats.DepthMax)
	}
	if p.Class() != profile.ClassIT {
		t.Fatalf("class = %v, want IT (pivot only feeds values)", p.Class())
	}
}

func TestValueBranchPruningMergesWithoutTaint(t *testing.T) {
	// Without taint the branch forks (condition is symbolic via the
	// pivot), but both sides produce the same RWS so pruning merges them.
	p, err := analyze(progBranchValue(), options{prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLeaves() != 1 {
		t.Fatalf("leaves = %d, want 1 after pruning", p.NumLeaves())
	}
	if p.Stats.StatesExplored != 3 { // one fork: 2 children + root
		t.Fatalf("states = %d, want 3", p.Stats.StatesExplored)
	}
	// Without pruning the tree keeps both (identical) subtrees.
	u, err := analyze(progBranchValue(), options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumLeaves() != 2 {
		t.Fatalf("unpruned leaves = %d, want 2", u.NumLeaves())
	}
}

func TestPivotKeyDetection(t *testing.T) {
	p, err := Analyze(progPivotKey())
	if err != nil {
		t.Fatal(err)
	}
	if p.Class() != profile.ClassDT {
		t.Fatalf("class = %v, want DT", p.Class())
	}
	if p.Stats.IndirectKeys != 1 {
		t.Fatalf("indirect keys = %d, want 1", p.Stats.IndirectKeys)
	}
	pr := &staticPivots{m: map[string]value.Value{"DIST/i2.lastOrderId": value.Int(7)}}
	ks, err := p.Instantiate(map[string]value.Value{"d": value.Int(2)}, pr)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range ks.Writes {
		if w.String() == "ORDER/i2/i8" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected ORDER/i2/i8 in writes, got %v", ks.Writes)
	}
	if len(ks.Pivots) != 1 || ks.Pivots[0].Key.String() != "DIST/i2" {
		t.Fatalf("pivots = %v", ks.Pivots)
	}
}

type staticPivots struct{ m map[string]value.Value }

func (s *staticPivots) ReadPivot(k value.Key, field string) (value.Value, bool) {
	v, ok := s.m[string(k.Encode())+"."+field]
	return v, ok
}

func TestSymbolicLoopBoundEnumeratesLengths(t *testing.T) {
	p, err := Analyze(progLoop(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Paths for n=2,3,4.
	if p.NumLeaves() != 3 {
		t.Fatalf("leaves = %d, want 3", p.NumLeaves())
	}
	for n := int64(2); n <= 4; n++ {
		ids := value.List(value.Int(10), value.Int(11), value.Int(12), value.Int(13))
		ks, err := p.Instantiate(map[string]value.Value{"n": value.Int(n), "ids": ids}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(ks.Writes)) != n {
			t.Fatalf("n=%d: writes=%v", n, ks.Writes)
		}
	}
}

func TestFixedInputsCollapseLoop(t *testing.T) {
	p, err := analyze(progLoop(2, 4), options{
		useTaint: true, prune: true,
		fixedInputs: map[string]value.Value{"n": value.Int(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLeaves() != 1 {
		t.Fatalf("leaves = %d, want 1 with fixed n", p.NumLeaves())
	}
	ks, err := p.Instantiate(map[string]value.Value{
		"n":   value.Int(3),
		"ids": value.List(value.Int(1), value.Int(2), value.Int(3), value.Int(4)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Writes) != 3 {
		t.Fatalf("writes = %v", ks.Writes)
	}
}

func TestInfeasiblePathsPruned(t *testing.T) {
	// Second condition is implied by the first: no fork for it.
	p := &lang.Program{
		Name:   "implied",
		Params: []lang.Param{lang.IntParam("x", 0, 10)},
		Body: []lang.Stmt{
			lang.IfS(lang.Gt(lang.P("x"), lang.C(5)),
				lang.IfS(lang.Gt(lang.P("x"), lang.C(2)), // always true here
					lang.PutS("T", lang.Key(lang.C(1)), lang.RecE(lang.F("v", lang.C(0)))),
				),
			),
		},
	}
	prof, err := analyze(p, options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the outer condition forks: x>2 is entailed under x>5 and
	// unsatisfiable-to-violate, so leaves = 2 not 3.
	if prof.NumLeaves() != 2 {
		t.Fatalf("leaves = %d, want 2 (inner branch entailed)", prof.NumLeaves())
	}
	if prof.Stats.StatesExplored != 3 {
		t.Fatalf("states = %d, want 3", prof.Stats.StatesExplored)
	}
}

func TestContradictoryRangeNoFork(t *testing.T) {
	p := &lang.Program{
		Name:   "never",
		Params: []lang.Param{lang.IntParam("x", 0, 4)},
		Body: []lang.Stmt{
			lang.IfS(lang.Gt(lang.P("x"), lang.C(100)),
				lang.PutS("T", lang.Key(lang.C(1)), lang.RecE(lang.F("v", lang.C(0)))),
			),
			lang.PutS("T", lang.Key(lang.C(2)), lang.RecE(lang.F("v", lang.C(0)))),
		},
	}
	prof, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.NumLeaves() != 1 {
		t.Fatalf("leaves = %d, want 1 (condition unsatisfiable)", prof.NumLeaves())
	}
	ks, err := prof.Instantiate(map[string]value.Value{"x": value.Int(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Writes) != 1 || ks.Writes[0].String() != "T/i2" {
		t.Fatalf("writes = %v", ks.Writes)
	}
}

func TestStateBudgetExceeded(t *testing.T) {
	// 8 independent forking branches with a budget of 4 states.
	var body []lang.Stmt
	for i := 0; i < 8; i++ {
		body = append(body, lang.IfS(lang.Gt(lang.P("x"), lang.C(int64(i))),
			lang.PutS("T", lang.Key(lang.C(int64(i))), lang.RecE(lang.F("v", lang.C(0))))))
	}
	p := &lang.Program{Name: "wide", Params: []lang.Param{lang.IntParam("x", 0, 100)}, Body: body}
	_, err := analyze(p, options{maxStates: 4})
	if err == nil || !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want budget error", err)
	}
}

func TestLoopUnrollBound(t *testing.T) {
	loop := func(n int64) *lang.Program {
		return &lang.Program{Name: "long", Body: []lang.Stmt{
			lang.ForS("i", lang.C(0), lang.C(n),
				lang.PutS("T", lang.Key(lang.L("i")), lang.RecE(lang.F("v", lang.C(0))))),
		}}
	}
	if _, err := Analyze(loop(DefaultMaxLoopUnroll)); err != nil {
		t.Fatalf("loop at the unroll bound: %v", err)
	}
	if _, err := Analyze(loop(DefaultMaxLoopUnroll + 1)); err == nil {
		t.Fatal("expected unroll bound error")
	}
}

func TestUnoptimizedComparisonRun(t *testing.T) {
	p, err := Measure(progBranchValue(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.StatesUnopt <= p.Stats.StatesExplored {
		t.Fatalf("unoptimized states (%d) should exceed optimized (%d)",
			p.Stats.StatesUnopt, p.Stats.StatesExplored)
	}
	if p.Stats.DurationUnopt == 0 {
		t.Fatal("unoptimized duration not recorded")
	}
	// TotalStates is the analytic 2^depthMax.
	if p.Stats.TotalStates != 2 {
		t.Fatalf("totalStates = %v, want 2", p.Stats.TotalStates)
	}
}

func TestExponentialCollapseLikeNewOrder(t *testing.T) {
	// The Algorithm 2 shape: a loop of n iterations each with a
	// value-only branch. Unoptimized: 2^n paths. Optimized: 1 path.
	n := 8
	p := &lang.Program{
		Name: "newOrderish",
		Params: []lang.Param{
			lang.IntParam("q", 0, 9),
			lang.ListParam("ids", lang.IntParam("", 0, 99), n, ""),
		},
		Body: []lang.Stmt{
			lang.ForS("i", lang.C(0), lang.C(int64(n)),
				lang.Set("id", lang.Idx(lang.P("ids"), lang.L("i"))),
				lang.GetS("item", "STOCK", lang.L("id")),
				lang.IfElse(lang.Le(lang.Fld(lang.L("item"), "qty"), lang.P("q")),
					[]lang.Stmt{lang.SetF("item", "qty", lang.C(0))},
					[]lang.Stmt{lang.SetF("item", "qty", lang.C(91))},
				),
				lang.PutS("STOCK", lang.Key(lang.L("id")), lang.L("item")),
			),
		},
	}
	opt, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.StatesExplored != 1 || opt.NumLeaves() != 1 {
		t.Fatalf("optimized: states=%d leaves=%d, want 1/1",
			opt.Stats.StatesExplored, opt.NumLeaves())
	}
	unopt, err := analyze(p, options{})
	if err != nil {
		t.Fatal(err)
	}
	wantStates := 2*(1<<n-1) + 1 // full binary tree of forks
	if unopt.Stats.StatesExplored != wantStates {
		t.Fatalf("unoptimized states = %d, want %d", unopt.Stats.StatesExplored, wantStates)
	}
	// Pruning alone (no taint) still collapses the tree to one leaf.
	pruned, err := analyze(p, options{prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumLeaves() != 1 {
		t.Fatalf("pruned leaves = %d, want 1", pruned.NumLeaves())
	}
	if pruned.Stats.StatesExplored != wantStates {
		t.Fatalf("pruning must not reduce explored states (memory only): %d", pruned.Stats.StatesExplored)
	}
}

func TestProfileMatchesConcreteExecution(t *testing.T) {
	// Property: for every input, the key-set predicted by the profile
	// equals the keys the concrete interpreter actually touches.
	progs := []*lang.Program{progStraight(), progBranchKey(), progBranchValue(), progLoop(1, 3)}
	for _, pg := range progs {
		prof, err := Analyze(pg)
		if err != nil {
			t.Fatalf("%s: %v", pg.Name, err)
		}
		for seed := int64(0); seed < 20; seed++ {
			inputs := randomInputs(pg, seed)
			kv := newStoreKV()
			res, err := lang.Run(pg, inputs, kv)
			if err != nil {
				t.Fatalf("%s: run: %v", pg.Name, err)
			}
			ks, err := prof.Instantiate(inputs, kv)
			if err != nil {
				t.Fatalf("%s: instantiate: %v", pg.Name, err)
			}
			assertKeyCover(t, pg.Name, res, ks)
		}
	}
}

// randomInputs derives deterministic pseudo-random inputs for a program.
func randomInputs(p *lang.Program, seed int64) map[string]value.Value {
	in := map[string]value.Value{}
	h := seed*2654435761 + 17
	next := func(lo, hi int64) int64 {
		h = h*6364136223846793005 + 1442695040888963407
		span := hi - lo + 1
		v := h % span
		if v < 0 {
			v += span
		}
		return lo + v
	}
	for _, prm := range p.Params {
		switch prm.Kind {
		case value.KindInt:
			in[prm.Name] = value.Int(next(prm.Lo, prm.Hi))
		case value.KindList:
			elems := make([]value.Value, prm.MaxLen)
			for i := range elems {
				lo, hi := int64(0), int64(9)
				if prm.Elem != nil {
					lo, hi = prm.Elem.Lo, prm.Elem.Hi
				}
				elems[i] = value.Int(next(lo, hi))
			}
			in[prm.Name] = value.List(elems...)
		case value.KindString:
			in[prm.Name] = value.Str("s")
		case value.KindBool:
			in[prm.Name] = value.Bool(next(0, 1) == 1)
		}
	}
	return in
}

// storeKV is a map KV that doubles as a PivotReader.
type storeKV struct{ m map[value.Encoded]value.Value }

func newStoreKV() *storeKV { return &storeKV{m: map[value.Encoded]value.Value{}} }

func (s *storeKV) Get(k value.Key) (value.Value, bool) { v, ok := s.m[k.Encode()]; return v, ok }
func (s *storeKV) Put(k value.Key, v value.Value)      { s.m[k.Encode()] = v }
func (s *storeKV) Delete(k value.Key)                  { delete(s.m, k.Encode()) }
func (s *storeKV) ReadPivot(k value.Key, field string) (value.Value, bool) {
	rec, ok := s.m[k.Encode()]
	if !ok {
		return value.Value{}, false
	}
	f, ok := rec.Field(field)
	return f, ok
}

func assertKeyCover(t *testing.T, name string, res *lang.Result, ks *profile.KeySet) {
	t.Helper()
	predictedW := map[string]bool{}
	for _, k := range ks.Writes {
		predictedW[k.String()] = true
	}
	for _, k := range res.Writes {
		if !predictedW[k.String()] {
			t.Fatalf("%s: write %s not predicted (predicted %v)", name, k, ks.Writes)
		}
	}
	predictedR := map[string]bool{}
	for _, k := range ks.Reads {
		predictedR[k.String()] = true
	}
	for _, k := range res.Reads {
		if !predictedR[k.String()] {
			t.Fatalf("%s: read %s not predicted (predicted %v)", name, k, ks.Reads)
		}
	}
}
