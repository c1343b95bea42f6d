package solver

import (
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/sym"
	"prognosticator/internal/value"
)

// sysGen builds a constraint system from fuzz bytes; past their end it
// reads zeros.
type sysGen struct {
	b    []byte
	ints []*sym.Var
	b1   *sym.Var
	strs []*sym.Var
	piv  *sym.Var
}

func (g *sysGen) next() int {
	if len(g.b) == 0 {
		return 0
	}
	x := int(g.b[0])
	g.b = g.b[1:]
	return x
}

func (g *sysGen) intn(n int) int { return g.next() % n }

var cmpOps = []lang.Op{lang.OpEq, lang.OpNe, lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe}

// linTerm is k + sum of up to three coef*var terms.
func (g *sysGen) linTerm() sym.Term {
	var t sym.Term = c(int64(g.intn(11) - 5))
	for i := g.intn(4); i > 0; i-- {
		x := g.ints[g.intn(len(g.ints))]
		var part sym.Term = x
		if k := int64(g.intn(7) - 3); k != 1 {
			part = bin(lang.OpMul, c(k), x)
		}
		op := lang.OpAdd
		if g.intn(2) == 0 {
			op = lang.OpSub
		}
		t = bin(op, t, part)
	}
	return t
}

func (g *sysGen) strOperand() sym.Term {
	switch g.intn(4) {
	case 0:
		return cs("a")
	case 1:
		return cs("b")
	default:
		return g.strs[g.intn(len(g.strs))]
	}
}

func (g *sysGen) atom(depth int) sym.Term {
	switch k := g.intn(11); {
	case k < 5:
		return bin(cmpOps[g.intn(len(cmpOps))], g.linTerm(), g.linTerm())
	case k == 10:
		// k*x + r == k*y with 0 < r < k has no solution, but propagation
		// narrows x and y one step a round: over wide domains it stops at
		// the round cap.
		x, y := g.ints[g.intn(len(g.ints))], g.ints[g.intn(len(g.ints))]
		k := int64(2 + g.intn(2))
		r := int64(1 + g.intn(int(k)-1))
		return bin(lang.OpEq, bin(lang.OpAdd, bin(lang.OpMul, c(k), x), c(r)), bin(lang.OpMul, c(k), y))
	case k == 5:
		op := lang.OpEq
		if g.intn(2) == 0 {
			op = lang.OpNe
		}
		return bin(op, g.strOperand(), g.strOperand())
	case k == 6:
		if g.intn(2) == 0 {
			return sym.Not{T: g.b1}
		}
		return g.b1
	case k == 7: // non-linear: only the search decides it
		x, y := g.ints[g.intn(len(g.ints))], g.ints[g.intn(len(g.ints))]
		ops := []lang.Op{lang.OpMul, lang.OpDiv, lang.OpMod}
		op := ops[g.intn(len(ops))]
		var r sym.Term = y // possibly zero
		if g.intn(2) == 0 {
			r = c(int64(g.intn(5) - 2))
		}
		return bin(cmpOps[g.intn(len(cmpOps))], bin(op, x, r), c(int64(g.intn(20))))
	case k == 8: // an unbounded pivot value
		return bin(cmpOps[g.intn(len(cmpOps))], g.piv, g.linTerm())
	default:
		if depth > 1 {
			return g.b1
		}
		op := lang.OpOr
		if g.intn(2) == 0 {
			op = lang.OpAnd
		}
		return bin(op, g.atom(depth+1), g.atom(depth+1))
	}
}

// system returns 1-6 atoms over 2-4 bounded integers, a boolean, two
// strings and a pivot, and the number of them to prepare as a path before
// checking the rest.
func (g *sysGen) system() ([]sym.Term, int) {
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < 2+g.intn(3); i++ {
		lo := int64(g.intn(17) - 8)
		width := int64(g.intn(40))
		if g.intn(4) == 0 {
			width *= 40
		}
		g.ints = append(g.ints, v(names[i], lo, lo+width))
	}
	g.b1 = sym.NewInput("flag", value.KindBool, 0, 0)
	g.strs = []*sym.Var{sym.NewInput("s", value.KindString, 0, 0), sym.NewInput("t", value.KindString, 0, 0)}
	g.piv = sym.NewPivot("T", []sym.Term{g.ints[0]}, "f")
	atoms := make([]sym.Term, 1+g.intn(6))
	for i := range atoms {
		atoms[i] = g.atom(0)
	}
	return atoms, g.intn(len(atoms) + 1)
}

// FuzzSolverMatchesReference: the prepared, map-free solver gives the
// reference solver's verdict on every system, whether it is checked in one
// call or prepared as a path and checked with the rest.
//
//	go test -run '^$' -fuzz FuzzSolverMatchesReference -fuzztime 20s ./internal/solver
func FuzzSolverMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 5, 3, 0, 7, 2, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 8, 39, 1, 0, 20, 3, 16, 1, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4})
	f.Add([]byte{1, 5, 5, 5, 0, 6, 1, 7, 2, 8, 3, 9, 4, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &sysGen{b: data}
		atoms, split := g.system()
		want := refCheck(atoms)
		if got := Check(atoms); got != want {
			t.Fatalf("Check(%v) = %v, reference %v", atoms, got, want)
		}
		var p *Path
		for _, a := range atoms[:split] {
			p = p.And(a)
		}
		if got := p.Check(atoms[split:]...); got != want {
			t.Fatalf("path %v, Check(%v) = %v, reference %v", atoms[:split], atoms[split:], got, want)
		}
		// Under the round cap the domains propagation leaves depend on the
		// order of its steps, mostly without moving the verdict: they must
		// be the reference's.
		ref, r := refPropagated(atoms)
		if r != 0 {
			return
		}
		for _, a := range atoms[split:] {
			p = p.And(a)
		}
		q := p.query()
		if q.stringReasoning() != Sat || !q.propagate() {
			t.Fatalf("%v: decided before the search, the reference was not", atoms)
		}
		for i, v := range q.vars {
			if d, want := q.domains[i], ref.domains[v.Name]; d.lo != want.lo || d.hi != want.hi {
				t.Fatalf("%v: %s propagated to %v, reference %v", atoms, v.Name, d, want)
			}
		}
	})
}

// TestPathForkChildrenIndependent: two conjunctions added to one path see
// the parent's atoms and not each other's.
func TestPathForkChildrenIndependent(t *testing.T) {
	x := v("x", 0, 10)
	p := (*Path)(nil).And(bin(lang.OpGt, x, c(5)))
	lo := p.And(bin(lang.OpLt, x, c(3)))
	hi := p.And(bin(lang.OpGe, x, c(3)))
	if got := lo.Check(); got != Unsat {
		t.Fatalf("x>5 && x<3 = %v", got)
	}
	if got := hi.Check(); got != Sat {
		t.Fatalf("x>5 && x>=3 = %v", got)
	}
	if got := p.Check(bin(lang.OpEq, x, c(10))); got != Sat {
		t.Fatalf("x>5 && x==10 = %v", got)
	}
	if got := lo.Check(); got != Unsat {
		t.Fatalf("x>5 && x<3 after its sibling = %v", got)
	}
}
