package symexec

import (
	"strings"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/value"
)

// Edge-case coverage: unsupported constructs must fail cleanly with
// descriptive errors, and less-common supported shapes must analyze
// correctly.

func TestSymbolicListIndexRejected(t *testing.T) {
	p := &lang.Program{
		Name: "symidx",
		Params: []lang.Param{
			lang.IntParam("i", 0, 3),
			lang.ListParam("xs", lang.IntParam("", 0, 9), 4, ""),
		},
		Body: []lang.Stmt{
			lang.GetS("r", "T", lang.Idx(lang.P("xs"), lang.P("i"))),
		},
	}
	_, err := Analyze(p)
	if err == nil || !strings.Contains(err.Error(), "symbolic list index") {
		t.Fatalf("err = %v", err)
	}
}

func TestSymbolicLoopLowerBoundRejected(t *testing.T) {
	p := &lang.Program{
		Name:   "symfrom",
		Params: []lang.Param{lang.IntParam("a", 0, 3)},
		Body: []lang.Stmt{
			lang.ForS("i", lang.P("a"), lang.C(5),
				lang.PutS("T", lang.Key(lang.L("i")), lang.RecE(lang.F("v", lang.C(0))))),
		},
	}
	_, err := Analyze(p)
	if err == nil || !strings.Contains(err.Error(), "lower bound") {
		t.Fatalf("err = %v", err)
	}
}

func TestRecordInArithmeticRejected(t *testing.T) {
	p := &lang.Program{
		Name:   "recmath",
		Params: []lang.Param{lang.IntParam("k", 0, 3)},
		Body: []lang.Stmt{
			lang.GetS("r", "T", lang.P("k")),
			lang.Set("bad", lang.Add(lang.L("r"), lang.C(1))),
			lang.PutS("T", lang.Key(lang.L("bad")), lang.RecE(lang.F("v", lang.C(0)))),
		},
	}
	if _, err := Analyze(p); err == nil {
		t.Fatal("record operand in + must be rejected")
	}
}

func TestStringKeyedTables(t *testing.T) {
	// RUBiS-style singleton counters keyed by string constants.
	p := &lang.Program{
		Name:   "counter",
		Params: []lang.Param{lang.IntParam("dummy", 0, 1)},
		Body: []lang.Stmt{
			lang.GetS("ids", "IDS", lang.Cs("users")),
			lang.Set("next", lang.Fld(lang.L("ids"), "next")),
			lang.PutS("USERS", lang.Key(lang.L("next")), lang.RecE(lang.F("ok", lang.C(1)))),
			lang.SetF("ids", "next", lang.Add(lang.L("next"), lang.C(1))),
			lang.PutS("IDS", lang.Key(lang.Cs("users")), lang.L("ids")),
		},
	}
	prof, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Class() != profile.ClassDT {
		t.Fatalf("class = %v", prof.Class())
	}
	pr := &staticPivots{m: map[string]value.Value{"IDS/susers.next": value.Int(42)}}
	ks, err := prof.Instantiate(map[string]value.Value{"dummy": value.Int(0)}, pr)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range ks.Writes {
		if w.String() == "USERS/i42" {
			found = true
		}
	}
	if !found {
		t.Fatalf("writes = %v", ks.Writes)
	}
}

func TestStringEqualityBranch(t *testing.T) {
	p := &lang.Program{
		Name:   "strbranch",
		Params: []lang.Param{lang.StrParam("mode")},
		Body: []lang.Stmt{
			lang.IfElse(lang.Eq(lang.P("mode"), lang.Cs("hot")),
				[]lang.Stmt{lang.PutS("T", lang.Key(lang.C(1)), lang.RecE(lang.F("v", lang.C(0))))},
				[]lang.Stmt{lang.PutS("T", lang.Key(lang.C(2)), lang.RecE(lang.F("v", lang.C(0))))},
			),
		},
	}
	prof, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.NumLeaves() != 2 {
		t.Fatalf("leaves = %d", prof.NumLeaves())
	}
	for mode, want := range map[string]string{"hot": "T/i1", "cold": "T/i2"} {
		ks, err := prof.Instantiate(map[string]value.Value{"mode": value.Str(mode)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ks.Writes) != 1 || ks.Writes[0].String() != want {
			t.Fatalf("mode=%s writes=%v", mode, ks.Writes)
		}
	}
}

func TestNestedPivotChainProgram(t *testing.T) {
	// y = GET(HEAD/k); z = GET(NODE/y.next); write NODE/z.next — a
	// two-level pivot chain.
	p := &lang.Program{
		Name:   "chain2",
		Params: []lang.Param{lang.IntParam("k", 0, 3)},
		Body: []lang.Stmt{
			lang.GetS("y", "HEAD", lang.P("k")),
			lang.GetS("z", "NODE", lang.Fld(lang.L("y"), "next")),
			lang.PutS("NODE", lang.Key(lang.Fld(lang.L("z"), "next")), lang.RecE(lang.F("v", lang.C(1)))),
		},
	}
	prof, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Stats.IndirectKeys != 2 {
		t.Fatalf("indirect keys = %d, want 2 (nested chain)", prof.Stats.IndirectKeys)
	}
	pr := &staticPivots{m: map[string]value.Value{
		"HEAD/i1.next": value.Int(7),
		"NODE/i7.next": value.Int(9),
	}}
	ks, err := prof.Instantiate(map[string]value.Value{"k": value.Int(1)}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Writes) != 1 || ks.Writes[0].String() != "NODE/i9" {
		t.Fatalf("writes = %v", ks.Writes)
	}
	if len(ks.Pivots) != 2 {
		t.Fatalf("pivot observations = %v", ks.Pivots)
	}
}

func TestDeleteTrackedAsWrite(t *testing.T) {
	p := &lang.Program{
		Name:   "del",
		Params: []lang.Param{lang.IntParam("k", 0, 3)},
		Body:   []lang.Stmt{lang.DelS("T", lang.P("k"))},
	}
	prof, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Class() != profile.ClassIT {
		t.Fatalf("class = %v", prof.Class())
	}
	ks, err := prof.Instantiate(map[string]value.Value{"k": value.Int(2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Writes) != 1 || ks.Writes[0].String() != "T/i2" {
		t.Fatalf("writes = %v", ks.Writes)
	}
}

func TestEmptyProgramProfile(t *testing.T) {
	p := &lang.Program{Name: "empty"}
	prof, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Class() != profile.ClassROT || prof.NumLeaves() != 1 {
		t.Fatalf("empty profile: %v leaves=%d", prof.Class(), prof.NumLeaves())
	}
}

func TestBoolParam(t *testing.T) {
	p := &lang.Program{
		Name:   "flag",
		Params: []lang.Param{{Name: "b", Kind: value.KindBool}},
		Body: []lang.Stmt{
			lang.IfElse(lang.P("b"),
				[]lang.Stmt{lang.PutS("T", lang.Key(lang.C(1)), lang.RecE(lang.F("v", lang.C(0))))},
				[]lang.Stmt{lang.PutS("T", lang.Key(lang.C(2)), lang.RecE(lang.F("v", lang.C(0))))},
			),
		},
	}
	prof, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.NumLeaves() != 2 {
		t.Fatalf("leaves = %d", prof.NumLeaves())
	}
	ks, err := prof.Instantiate(map[string]value.Value{"b": value.Bool(true)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Writes[0].String() != "T/i1" {
		t.Fatalf("writes = %v", ks.Writes)
	}
}
