package lint

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/value"
)

// findingsOf filters by pass name.
func findingsOf(fs []Finding, pass string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Pass == pass {
			out = append(out, f)
		}
	}
	return out
}

func lintSrc(t *testing.T, schema *lang.Schema, src string) []Finding {
	t.Helper()
	return New(schema).Run(mustParse(t, src))
}

func TestSchemaPassUnknownTable(t *testing.T) {
	schema := lang.NewSchema(lang.TableSpec{Name: "ACCOUNTS", KeyArity: 1})
	fs := findingsOf(lintSrc(t, schema, `
transaction ghost(id int[0..9]) {
    x = get NOPE[id]
    emit out = x
}`), "schema")
	if len(fs) != 1 {
		t.Fatalf("got %d schema findings, want 1: %v", len(fs), fs)
	}
	f := fs[0]
	if f.Severity != SevError || !strings.Contains(f.Message, `unknown table "NOPE"`) {
		t.Errorf("unexpected finding %v", f)
	}
	if f.Pos.Line != 3 {
		t.Errorf("finding at line %d, want 3", f.Pos.Line)
	}
	if f.Path != "body[0]" {
		t.Errorf("finding path %q, want body[0]", f.Path)
	}
}

func TestSchemaPassKeyArity(t *testing.T) {
	schema := lang.NewSchema(lang.TableSpec{Name: "ORDERS", KeyArity: 2})
	fs := findingsOf(lintSrc(t, schema, `
transaction arity(w int[0..9], d int[0..9]) {
    o = get ORDERS[w]
    put ORDERS[w, d] = o
}`), "schema")
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(fs), fs)
	}
	if want := `table "ORDERS" expects 2 key parts, got 1`; !strings.Contains(fs[0].Message, want) {
		t.Errorf("message %q does not contain %q", fs[0].Message, want)
	}
}

func TestSchemaPassNestedPosition(t *testing.T) {
	schema := lang.NewSchema(lang.TableSpec{Name: "T", KeyArity: 1})
	fs := findingsOf(lintSrc(t, schema, `
transaction nested(x int[0..9]) {
    if x > 4 {
        del BAD[x]
    }
}`), "schema")
	if len(fs) != 1 || fs[0].Path != "body[0].then[0]" {
		t.Fatalf("findings %v, want one at body[0].then[0]", fs)
	}
}

func TestUseBeforeAssignPass(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction partial(x int[0..9]) {
    if x > 4 {
        a = 1
    }
    emit out = a
}`), "use-before-assign")
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Message, `local "a" may be used before assignment`) {
		t.Errorf("unexpected message %q", fs[0].Message)
	}
	if fs[0].Severity != SevError {
		t.Errorf("severity %v, want error", fs[0].Severity)
	}
}

func TestUseBeforeAssignNeverDefined(t *testing.T) {
	// A local with no definition site anywhere must still be flagged: the
	// synthetic undefined def covers used-only variables too.
	fs := findingsOf(lintSrc(t, nil, `
transaction ghostvar(x int[0..9]) {
    put T[v] = {a: 1}
}`), "use-before-assign")
	if len(fs) != 1 || !strings.Contains(fs[0].Message, `local "v"`) {
		t.Fatalf("findings %v, want one for never-defined v", fs)
	}
}

func TestUseBeforeAssignCleanOnBothArms(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction total(x int[0..9]) {
    if x > 4 {
        a = 1
    } else {
        a = 2
    }
    emit out = a
}`), "use-before-assign")
	if len(fs) != 0 {
		t.Fatalf("false positives: %v", fs)
	}
}

func TestLoopBoundPassOverBudget(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction big(n int[0..1000]) {
    s = 0
    for i = 0 .. n {
        s = s + i
    }
    emit out = s
}`), "loop-bound")
	if len(fs) != 1 || fs[0].Severity != SevError {
		t.Fatalf("got %v, want one error finding", fs)
	}
	if !strings.Contains(fs[0].Message, "symexec.ErrBudget") {
		t.Errorf("message should mention symexec.ErrBudget: %q", fs[0].Message)
	}
}

func TestLoopBoundPassWithinBudget(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction small(n int[1..10]) {
    s = 0
    for i = 0 .. n {
        s = s + i
    }
    emit out = s
}`), "loop-bound")
	if len(fs) != 0 {
		t.Fatalf("false positives: %v", fs)
	}
}

func TestLoopBoundPassUnderivable(t *testing.T) {
	// The bound comes from the store, not from a declared domain.
	fs := findingsOf(lintSrc(t, nil, `
transaction storebound(id int[0..9]) {
    c = get T[id]
    s = 0
    for i = 0 .. c.n {
        s = s + i
    }
    emit out = s
}`), "loop-bound")
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "not derivable from declared input domains") {
		t.Fatalf("findings %v, want one underivable-bound error", fs)
	}
}

func TestLoopBoundPassWidenedBoundStaysUnbounded(t *testing.T) {
	// x is widened to [0,+∞] by the first loop, so y = x - 1 has no upper
	// bound either: the second loop's bound is not derivable. An add that
	// treats the +∞ sentinel as a number reads y ∈ [-1, 2^62-1] and reports
	// a finite, absurd trip count instead.
	fs := findingsOf(lintSrc(t, nil, `
transaction wid(n int[0..9]) {
    x = 0
    for i = 0 .. n { x = x + x + 1 }
    y = x - 1
    s = 0
    for j = 0 .. y { s = s + 1 }
    emit out = s
}`), "loop-bound")
	if len(fs) != 1 || fs[0].Path != "body[4]" ||
		!strings.Contains(fs[0].Message, `bounds of loop "j" are not derivable`) {
		t.Fatalf("findings %v, want one underivable-bound error on loop j", fs)
	}
}

func TestLoopBoundPassNeverExecutes(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction empty(n int[0..9]) {
    s = 0
    for i = 9 .. n {
        s = s + i
    }
    emit out = s
}`), "loop-bound")
	if len(fs) != 1 || fs[0].Severity != SevWarning || !strings.Contains(fs[0].Message, "never executes") {
		t.Fatalf("findings %v, want one never-executes warning", fs)
	}
}

func TestPivotKeyPassFlagsDependentGet(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction chase(id int[0..9]) {
    c = get COUNTERS[id]
    put ITEMS[c.next] = {v: 1}
}`), "pivot-key")
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(fs), fs)
	}
	if fs[0].Severity != SevInfo {
		t.Errorf("pivot-key severity %v, want info (DT is a classification, not a defect)", fs[0].Severity)
	}
	if !strings.Contains(fs[0].Message, "dependent transaction") {
		t.Errorf("unexpected message %q", fs[0].Message)
	}
}

func TestPivotKeyPassSilentOnIndependent(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction indep(id int[0..9], amt int[1..100]) {
    a = get ACCOUNTS[id]
    a.bal = a.bal + amt
    put ACCOUNTS[id] = a
}`), "pivot-key")
	if len(fs) != 0 {
		t.Fatalf("independent transaction flagged: %v", fs)
	}
}

func TestDeadBranchPassAlwaysFalse(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction dead(x int[0..9]) {
    if x > 100 {
        emit never = 1
    }
    emit out = x
}`), "dead-branch")
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "then-branch is dead") {
		t.Fatalf("findings %v, want one dead-then warning", fs)
	}
}

func TestDeadBranchPassAlwaysTrue(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction taut(x int[0..9]) {
    if x < 100 {
        emit a = 1
    } else {
        emit b = 2
    }
}`), "dead-branch")
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "always true") {
		t.Fatalf("findings %v, want one always-true warning", fs)
	}
}

func TestDeadBranchPassNestedContradiction(t *testing.T) {
	// Feasible outer condition, contradictory inner one: requires threading
	// the path constraint.
	fs := findingsOf(lintSrc(t, nil, `
transaction nestdead(x int[0..9]) {
    if x < 5 {
        if x > 7 {
            emit never = 1
        }
    }
}`), "dead-branch")
	var dead []Finding
	for _, f := range fs {
		if strings.Contains(f.Message, "then-branch is dead") && f.Path == "body[0].then[0]" {
			dead = append(dead, f)
		}
	}
	if len(dead) != 1 {
		t.Fatalf("findings %v, want the nested contradiction flagged", fs)
	}
}

func TestDeadBranchPassFeasibleSilent(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction live(x int[0..9]) {
    if x > 4 {
        emit hi = 1
    } else {
        emit lo = 2
    }
}`), "dead-branch")
	if len(fs) != 0 {
		t.Fatalf("feasible branches flagged: %v", fs)
	}
}

func TestParamDomainPassMissingDomain(t *testing.T) {
	// Builder-constructed program: no source positions, path-only findings.
	p := &lang.Program{
		Name:   "nodomain",
		Params: []lang.Param{{Name: "x", Kind: value.KindInt}},
		Body: []lang.Stmt{
			lang.EmitS("out", lang.P("x")),
		},
	}
	fs := findingsOf(New(nil).Run(p), "param-domain")
	if len(fs) != 1 || fs[0].Severity != SevWarning || !strings.Contains(fs[0].Message, "no declared domain") {
		t.Fatalf("findings %v, want one no-domain warning", fs)
	}
	if fs[0].Pos.IsValid() {
		t.Errorf("builder program finding should have no source position")
	}
	if fs[0].Path != "params" {
		t.Errorf("path %q, want params", fs[0].Path)
	}
}

func TestParamDomainPassEmptyDomain(t *testing.T) {
	p := &lang.Program{
		Name:   "empty",
		Params: []lang.Param{lang.IntParam("x", 5, 1)},
		Body:   []lang.Stmt{lang.EmitS("out", lang.P("x"))},
	}
	fs := findingsOf(New(nil).Run(p), "param-domain")
	if len(fs) != 1 || fs[0].Severity != SevError || !strings.Contains(fs[0].Message, "empty domain") {
		t.Fatalf("findings %v, want one empty-domain error", fs)
	}
}

func TestParamDomainPassUnusedParam(t *testing.T) {
	fs := findingsOf(lintSrc(t, nil, `
transaction unused(x int[0..9], y int[0..9]) {
    emit out = x
}`), "param-domain")
	if len(fs) != 1 || fs[0].Severity != SevWarning || !strings.Contains(fs[0].Message, `parameter "y" is never used`) {
		t.Fatalf("findings %v, want one unused-param warning", fs)
	}
}

func TestParamDomainPassLenParamBeyondCapacity(t *testing.T) {
	elem := lang.IntParam("", 0, 9)
	p := &lang.Program{
		Name: "overlen",
		Params: []lang.Param{
			lang.IntParam("n", 1, 20),
			{Name: "items", Kind: value.KindList, Elem: &elem, MaxLen: 10, LenParam: "n"},
		},
		Body: []lang.Stmt{
			lang.EmitS("out", lang.Idx(lang.P("items"), lang.C(0))),
		},
	}
	fs := findingsOf(New(nil).Run(p), "param-domain")
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "beyond capacity") {
		t.Fatalf("findings %v, want one beyond-capacity error", fs)
	}
}

func TestFindingStringAndJSON(t *testing.T) {
	f := Finding{Prog: "t", Pass: "schema", Pos: lang.Pos{Line: 3, Col: 5},
		Path: "body[0]", Severity: SevError, Message: "boom"}
	if got, want := f.String(), "t:3:5: error: [schema] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	f.Pos = lang.Pos{}
	if got, want := f.String(), "t:body[0]: error: [schema] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}

	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"severity":"error"`) {
		t.Errorf("JSON severity not symbolic: %s", data)
	}
	var back Finding
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Severity != SevError {
		t.Errorf("roundtrip severity %v", back.Severity)
	}
}

func TestFindingsSortedDeterministically(t *testing.T) {
	src := `
transaction multi(x int[0..9], unused int[0..9]) {
    if x > 100 {
        a = get NOPE[x]
        emit never = a
    }
}`
	schema := lang.NewSchema(lang.TableSpec{Name: "T", KeyArity: 1})
	first := New(schema).Run(mustParse(t, src))
	if len(first) < 3 {
		t.Fatalf("expected several findings, got %v", first)
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		a, b := first[i], first[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return true
	}) {
		t.Errorf("findings not ordered by line: %v", first)
	}
	for i := 0; i < 5; i++ {
		again := New(schema).Run(mustParse(t, src))
		if len(again) != len(first) {
			t.Fatalf("non-deterministic finding count")
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("non-deterministic order at %d: %v vs %v", j, again[j], first[j])
			}
		}
	}
}

func TestMaxSeverity(t *testing.T) {
	if got := MaxSeverity(nil); got != 0 {
		t.Errorf("MaxSeverity(nil) = %v, want 0", got)
	}
	fs := []Finding{{Severity: SevInfo}, {Severity: SevError}, {Severity: SevWarning}}
	if got := MaxSeverity(fs); got != SevError {
		t.Errorf("MaxSeverity = %v, want error", got)
	}
}

func TestInferSchema(t *testing.T) {
	progs, err := lang.ParseAll(`
transaction a(x int[0..9]) {
    v = get T1[x]
    put T2[x, x] = v
}
transaction b(y int[0..9]) {
    del T1[y]
}`)
	if err != nil {
		t.Fatal(err)
	}
	s := InferSchema(progs...)
	t1, ok := s.Table("T1")
	if !ok || t1.KeyArity != 1 {
		t.Errorf("T1 = %+v, %v", t1, ok)
	}
	t2, ok := s.Table("T2")
	if !ok || t2.KeyArity != 2 {
		t.Errorf("T2 = %+v, %v", t2, ok)
	}
	if _, ok := s.Table("T3"); ok {
		t.Errorf("phantom table inferred")
	}
}
