package solver

import (
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/sym"
)

// capSystem is unsat (its equality says 3(a-c) = 1), but interval
// propagation narrows the domains by one step a round and stops at the
// round cap, so whether the leftover space fits the search budget depends
// on the order in which each atom's coefficients are visited.
func capSystem() []sym.Term {
	a, b, cv := v("a", 0, 1326), v("b", 0, 77), v("c", 0, 927)
	mul := func(k int64, x sym.Term) sym.Term { return bin(lang.OpMul, c(k), x) }
	add := func(l, r sym.Term) sym.Term { return bin(lang.OpAdd, l, r) }
	sub := func(l, r sym.Term) sym.Term { return bin(lang.OpSub, l, r) }
	return []sym.Term{
		// 3 + 1*b > -3 + 1*a + 1*c
		bin(lang.OpGt, add(c(3), mul(1, b)), add(add(c(-3), mul(1, a)), mul(1, cv))),
		// 3 - 2*a - 2*b + 1*c == 2 + 1*a - 2*b - 2*c
		bin(lang.OpEq,
			add(sub(sub(c(3), mul(2, a)), mul(2, b)), mul(1, cv)),
			sub(sub(add(c(2), mul(1, a)), mul(2, b)), mul(2, cv))),
	}
}

// TestCheckDeterministic: a verdict is a function of the constraints, not
// of the process. Every replica analyses its catalog at boot, and a
// verdict that flips prunes a branch on one replica and explores it on
// another.
func TestCheckDeterministic(t *testing.T) {
	sys := capSystem()
	first := Check(sys)
	for i := 1; i < 200; i++ {
		if got := Check(sys); got != first {
			t.Fatalf("call %d: %v, first call: %v", i, got, first)
		}
	}
}
