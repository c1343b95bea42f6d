package lang_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/lint"
	"prognosticator/internal/value"
)

// walkPaths returns the paths lang.Walk hands out, in order.
func walkPaths(p *lang.Program) []string {
	var paths []string
	lang.Walk(p.Root(), func(path string, _ lang.Stmt) { paths = append(paths, path) })
	return paths
}

func TestWalkPathGrammar(t *testing.T) {
	p := lang.MustParse(`
transaction g(n int[0..3], f bool) {
    a = 0
    if f {
        for i = 0 .. n {
            a = a + i
            if a > 2 { emit big = a }
        }
    } else {
        emit neg = 0
    }
    emit out = a
}`)
	want := []string{
		"body[0]",
		"body[1]",
		"body[1].then[0]",
		"body[1].then[0].body[0]",
		"body[1].then[0].body[1]",
		"body[1].then[0].body[1].then[0]",
		"body[1].else[0]",
		"body[2]",
	}
	if got := walkPaths(p); !slices.Equal(got, want) {
		t.Fatalf("Walk paths\n got %q\nwant %q", got, want)
	}
}

// TestWalkPathsMatchCFGAndTrace holds the walk to two references on the
// shipped fixtures and the TPC-C and RUBiS catalogs: the lint CFG's
// statement nodes carry the same paths in the same order, and every path a
// traced execution reports is one of them.
func TestWalkPathsMatchCFGAndTrace(t *testing.T) {
	progs := workloadPrograms()
	for _, file := range []string{"../../testdata/bank.txn", "../../testdata/lintbad.txn"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := lang.ParseAll(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		progs = append(progs, ps...)
	}
	st := workloadStore()
	for _, p := range progs {
		paths := walkPaths(p)
		var cfgPaths []string
		for _, n := range lint.BuildCFG(p).Nodes {
			if n.Stmt != nil {
				cfgPaths = append(cfgPaths, n.Path)
			}
		}
		if !slices.Equal(paths, cfgPaths) {
			t.Errorf("%s: Walk paths\n%q\ndiffer from the CFG's\n%q", p.Name, paths, cfgPaths)
		}
		traced := 0
		trace := func(path string, _ map[string]value.Value) {
			traced++
			if !slices.Contains(paths, path) {
				t.Errorf("%s: RunTrace reported %q, which Walk does not hand out", p.Name, path)
			}
		}
		for _, seed := range [][]byte{nil, {1, 2, 3, 4, 5, 6, 7, 8}, {255, 9, 200, 3, 77, 1, 4, 160}} {
			// Runs that fail part-way still traced what they reached.
			_, _ = lang.RunTrace(p, inputsFor(p, &byteSource{b: seed}), st.WriterAt(1), trace)
		}
		if traced == 0 {
			t.Errorf("%s: no statement traced", p.Name)
		}
	}
}

func TestExprs(t *testing.T) {
	k1, k2, v := lang.P("k1"), lang.Add(lang.L("k2"), lang.C(1)), lang.C(7)
	cond, from, to := lang.Cb(true), lang.C(0), lang.P("n")
	for _, c := range []struct {
		st   lang.Stmt
		want []lang.Expr
	}{
		{lang.Assign{Dst: "a", E: v}, []lang.Expr{v}},
		{lang.SetField{Dst: "a", Field: "f", E: v}, []lang.Expr{v}},
		{lang.Get{Dst: "a", Table: "T", Key: []lang.Expr{k1, k2}}, []lang.Expr{k1, k2}},
		{lang.Put{Table: "T", Key: []lang.Expr{k1, k2}, Val: v}, []lang.Expr{k1, k2, v}},
		{lang.Del{Table: "T", Key: []lang.Expr{k1}}, []lang.Expr{k1}},
		// Only what the statement evaluates itself: not its arms or body.
		{lang.If{Cond: cond, Then: []lang.Stmt{lang.Emit{Name: "x", E: v}}}, []lang.Expr{cond}},
		{lang.For{Var: "i", From: from, To: to, Body: []lang.Stmt{lang.Emit{Name: "x", E: v}}}, []lang.Expr{from, to}},
		{lang.Emit{Name: "x", E: v}, []lang.Expr{v}},
	} {
		if got, want := formatExprs(lang.Exprs(c.st)), formatExprs(c.want); got != want {
			t.Errorf("Exprs(%T) = %s, want %s", c.st, got, want)
		}
	}
	// A Put's key list is the statement's own; Exprs must not write into it.
	key := make([]lang.Expr, 1, 4)
	key[0] = k1
	lang.Exprs(lang.Put{Table: "T", Key: key, Val: v})
	if spare := key[:2]; spare[1] != nil {
		t.Error("Exprs(Put) appended into the statement's key slice")
	}
}

func formatExprs(es []lang.Expr) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = lang.FormatExpr(e)
	}
	return strings.Join(out, ", ")
}

func TestInspectPrunes(t *testing.T) {
	e := lang.Add(lang.Field{E: lang.L("r"), Name: "f"}, lang.Index{E: lang.P("xs"), I: lang.L("i")})
	var seen []string
	lang.Inspect(e, func(x lang.Expr) bool {
		switch x := x.(type) {
		case lang.LocalRef:
			seen = append(seen, x.Name)
		case lang.ParamRef:
			seen = append(seen, x.Name)
		case lang.Field:
			seen = append(seen, "."+x.Name)
			return false // r is not visited
		}
		return true
	})
	if want := []string{".f", "xs", "i"}; !slices.Equal(seen, want) {
		t.Errorf("Inspect visited %q, want %q", seen, want)
	}
}
