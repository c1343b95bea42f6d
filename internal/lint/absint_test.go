package lint

import (
	"testing"

	"prognosticator/internal/lang"
)

func envAt(t *testing.T, a *AbsState, path string) AbsEnv {
	t.Helper()
	env, ok := a.EnvAt(path)
	if !ok {
		t.Fatalf("no CFG node at path %q", path)
	}
	return env
}

func wantRange(t *testing.T, v AbsVal, lo, hi int64) {
	t.Helper()
	if v.Kind != AbsRange || v.Lo != lo || v.Hi != hi {
		t.Errorf("got %s, want [%d,%d]", v, lo, hi)
	}
}

func TestAbsIntStraightLine(t *testing.T) {
	p := mustParse(t, `
transaction straight(x int[0..9]) {
    a = x + 1
    b = a * 2
    c = 7
    d = c - b
    emit out = d
}`)
	a := SolveAbsInt(BuildCFG(p))
	env := envAt(t, a, "body[4]")
	wantRange(t, env.Lookup("a"), 1, 10)
	wantRange(t, env.Lookup("b"), 2, 20)
	wantRange(t, env.Lookup("c"), 7, 7)
	wantRange(t, env.Lookup("d"), -13, 5)
	if v, ok := env.Lookup("c").Singleton(); !ok || v.MustInt() != 7 {
		t.Errorf("c singleton = %v, %v; want 7", v, ok)
	}
}

func TestAbsIntJoinAtMerge(t *testing.T) {
	p := mustParse(t, `
transaction branchy(x int[0..9], f bool) {
    if f {
        a = 1
    } else {
        a = x + 10
    }
    emit out = a
}`)
	a := SolveAbsInt(BuildCFG(p))
	// After the merge: hull of {1} and [10,19].
	wantRange(t, envAt(t, a, "body[1]").Lookup("a"), 1, 19)
}

func TestAbsIntGetAndFieldsAreTop(t *testing.T) {
	p := mustParse(t, `
transaction opaque(x int[0..9]) {
    r = get T[x]
    v = r.n
    emit out = v
}`)
	a := SolveAbsInt(BuildCFG(p))
	env := envAt(t, a, "body[2]")
	if env.Lookup("r").Kind != AbsTop || env.Lookup("v").Kind != AbsTop {
		t.Errorf("store-derived values should be ⊤, got r=%s v=%s", env.Lookup("r"), env.Lookup("v"))
	}
}

func TestAbsIntInductionVariable(t *testing.T) {
	p := mustParse(t, `
transaction loopy(n int[3..8]) {
    for i = 2 .. n {
        u = i
    }
    emit out = 0
}`)
	a := SolveAbsInt(BuildCFG(p))
	// In the body: i ∈ [2, n-1] ⊆ [2, 7].
	wantRange(t, envAt(t, a, "body[0].body[0]").Lookup("i"), 2, 7)
}

func TestAbsIntEmptyLoopInterval(t *testing.T) {
	p := mustParse(t, `
transaction never(a int[0..3]) {
    lim = a
    for i = 5 .. lim {
        u = i
    }
    emit out = 0
}`)
	a := SolveAbsInt(BuildCFG(p))
	env := envAt(t, a, "body[1]")
	wantRange(t, env.Lookup("lim"), 0, 3)
	iv := forVarInterval(p.Body[1].(lang.For), p, env)
	if iv.Kind != AbsBot {
		t.Errorf("empty trip interval should give ⊥ induction variable, got %s", iv)
	}
}

func TestAbsIntWideningTerminatesOnAccumulator(t *testing.T) {
	p := mustParse(t, `
transaction accum(n int[0..100]) {
    s = 0
    for i = 0 .. n {
        s = s + 1
    }
    emit out = s
}`)
	a := SolveAbsInt(BuildCFG(p))
	if a.Capped {
		t.Fatalf("iteration cap fired on a 4-statement loop (Iterations=%d)", a.Iterations)
	}
	// The accumulator is widened along the back edge: its lower bound is
	// stable at 0, the upper bound is not and goes to the sentinel.
	s := envAt(t, a, "body[2]").Lookup("s")
	if s.Kind != AbsRange || s.Lo != 0 || s.Bounded() {
		t.Errorf("accumulator after widening = %s, want [0,+∞]", s)
	}
}

func TestSatAddSentinelsAbsorb(t *testing.T) {
	for _, c := range []struct{ a, b, want int64 }{
		{3, 4, 7},
		{absInf, -1, absInf},             // a widened upper bound stays widened
		{-absInf, 1, -absInf},            // likewise a widened lower bound
		{-1, absInf, absInf},             // either operand
		{absInf, -absInf, absInf},        // an unknown bound stays unknown
		{absInf - 1, absInf - 1, absInf}, // finite sums clamp
		{-absInf + 1, -absInf + 1, -absInf},
	} {
		if got := satAdd(c.a, c.b); got != c.want {
			t.Errorf("satAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAbsIntComparisonFolding(t *testing.T) {
	p := mustParse(t, `
transaction cmp(x int[0..9]) {
    y = x + 1
    t = y < 20
    f = y > 100
    u = y == 3
    emit out = t
}`)
	a := SolveAbsInt(BuildCFG(p))
	env := envAt(t, a, "body[4]")
	if v, ok := env.Lookup("t").Singleton(); !ok || !v.MustBool() {
		t.Errorf("t = %s, want const true", env.Lookup("t"))
	}
	if v, ok := env.Lookup("f").Singleton(); !ok || v.MustBool() {
		t.Errorf("f = %s, want const false", env.Lookup("f"))
	}
	if env.Lookup("u").Kind != AbsTop {
		t.Errorf("u = %s, want ⊤ (undecidable)", env.Lookup("u"))
	}
}

func TestAbsIntListElementDomain(t *testing.T) {
	p := &lang.Program{
		Name: "lists",
		Params: []lang.Param{
			lang.IntParam("k", 0, 4),
			lang.ListParam("ids", lang.IntParam("", 1, 50), 8, ""),
		},
		Body: []lang.Stmt{
			lang.Set("id", lang.Idx(lang.P("ids"), lang.P("k"))),
			lang.EmitS("out", lang.L("id")),
		},
	}
	a := SolveAbsInt(BuildCFG(p))
	wantRange(t, envAt(t, a, "body[1]").Lookup("id"), 1, 50)
}

// buildFuzzProgram decodes an arbitrary byte stream into a syntactically
// valid program: a deterministic, always-terminating mapping so the fuzzer
// explores CFG shapes (nesting, sequencing, loop bounds) rather than parser
// behavior.
func buildFuzzProgram(data []byte) *lang.Program {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	locals := []string{"v0", "v1", "v2", "v3"}
	var genExpr func(depth int) lang.Expr
	genExpr = func(depth int) lang.Expr {
		b := next()
		if depth >= 3 {
			return lang.C(int64(b%19) - 9)
		}
		switch b % 5 {
		case 0:
			return lang.C(int64(b%19) - 9)
		case 1:
			return lang.P([]string{"a", "b", "n"}[b%3])
		case 2:
			return lang.L(locals[b%4])
		case 3:
			ops := []lang.Op{lang.OpAdd, lang.OpSub, lang.OpMul, lang.OpLt, lang.OpGe, lang.OpEq}
			return lang.Bin{Op: ops[int(next())%len(ops)], L: genExpr(depth + 1), R: genExpr(depth + 1)}
		default:
			return lang.Neg(genExpr(depth + 1))
		}
	}
	var genBlock func(depth, maxLen int) []lang.Stmt
	genBlock = func(depth, maxLen int) []lang.Stmt {
		var body []lang.Stmt
		for len(body) < maxLen {
			b := next()
			if b%7 == 6 {
				break
			}
			switch b % 7 {
			case 0, 1:
				body = append(body, lang.Set(locals[b%4], genExpr(0)))
			case 2:
				body = append(body, lang.GetS(locals[b%4], "T", genExpr(0)))
			case 3:
				body = append(body, lang.PutS("T", lang.Key(genExpr(0)), genExpr(0)))
			case 4:
				if depth < 3 {
					body = append(body, lang.If{
						Cond: genExpr(0),
						Then: genBlock(depth+1, 3),
						Else: genBlock(depth+1, 3),
					})
				}
			default:
				if depth < 3 {
					body = append(body, lang.For{
						Var:  "i" + string('0'+rune(depth)),
						From: genExpr(0),
						To:   genExpr(0),
						Body: genBlock(depth+1, 3),
					})
				}
			}
		}
		return body
	}
	return &lang.Program{
		Name: "fuzz",
		Params: []lang.Param{
			lang.IntParam("a", 0, 9),
			lang.IntParam("b", -5, 5),
			lang.IntParam("n", 0, 100),
		},
		Body: genBlock(0, 6),
	}
}

// FuzzAbsIntTermination is the widening termination proof: on arbitrary
// program shapes the fixed point must converge naturally — within the
// analytic iteration bound, never via the hard-cap fallback.
func FuzzAbsIntTermination(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 3, 0, 5, 3, 0, 5, 3, 0, 5, 3, 0, 1, 1, 1, 1})
	f.Add([]byte{4, 3, 1, 5, 0, 2, 4, 3, 1, 5, 0, 2, 4, 3, 1, 5, 0, 2, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := buildFuzzProgram(data)
		cfg := BuildCFG(p)
		a := SolveAbsInt(cfg)
		if a.Capped {
			t.Fatalf("iteration cap fired: widening failed to converge in %d iterations on %d nodes", a.Iterations, len(cfg.Nodes))
		}
		if a.Iterations > a.maxIterations() {
			t.Fatalf("Iterations=%d exceeds bound %d", a.Iterations, a.maxIterations())
		}
		// The solution must cover the entry environment everywhere reachable:
		// spot-check that no parameter ever reads ⊥ at a reachable node.
		for _, n := range cfg.Nodes {
			env, ok := a.EnvAt(n.Path)
			if !ok || env == nil {
				continue
			}
			for _, prm := range p.Params {
				if env.get(prm.Name).Kind == AbsBot {
					t.Fatalf("parameter %q is ⊥ at reachable node %s", prm.Name, n.Path)
				}
			}
		}
	})
}
