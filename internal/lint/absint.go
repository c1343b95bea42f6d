package lint

import (
	"fmt"

	"prognosticator/internal/lang"
	"prognosticator/internal/value"
)

// Interval/constant abstract interpretation over the CFG.
//
// Each scalar variable is mapped to an element of the lattice
//
//	⊥  <  const (bool/string)  ,  [lo,hi] (int)  <  ⊤
//
// with join at CFG merges (interval hull, equal constants) and widening on
// loop back-edges. An unstable interval bound is widened straight to the
// sentinel ±absInf, i.e. "unbounded in that direction": each variable can
// then climb the lattice at most a constant number of times (⊥ → value →
// bound widened low → bound widened high → ⊤), so the fixed point terminates
// after O(|nodes| · |vars|) worklist visits. FuzzAbsIntTermination checks the
// bound on randomly generated programs; SolveAbsInt additionally enforces a
// hard iteration cap and degrades every variable to ⊤ if it is ever hit, so
// termination does not rest on the analysis being bug-free.
//
// Soundness contract: the environment entering a node over-approximates every
// concrete store reaching that node. Consumers (the dead-branch pass, the
// loop-bound pass) may therefore substitute a local by its abstract value
// when proving UNsatisfiability — a claim over a superset of the reachable
// states holds a fortiori over the reachable ones. Values that may exceed
// ±absInf are never produced: any arithmetic that could overflow the
// sentinels goes to ⊤ instead.

// AbsKind discriminates AbsVal.
type AbsKind int

// Lattice levels. Integer constants are normalized to one-point ranges, so
// AbsConst only ever carries bool or string payloads.
const (
	AbsBot   AbsKind = iota // unreachable / never assigned
	AbsConst                // exactly the bool/string V
	AbsRange                // an int in [Lo, Hi]
	AbsTop                  // unknown
)

// absInf is the magnitude of the interval sentinels: a bound equal to
// -absInf or +absInf means "unbounded in that direction". Sentinels are what
// widening produces and what overflow clamps to; consumers must treat them
// as unusable bounds. The value leaves headroom so that Hi-Lo never
// overflows int64 even between two sentinels.
const absInf = int64(1) << 62

// AbsVal is one lattice element.
type AbsVal struct {
	Kind   AbsKind
	V      value.Value // AbsConst payload (bool or string)
	Lo, Hi int64       // AbsRange payload
}

// absTop and absBot are the lattice extremes.
var (
	absTop = AbsVal{Kind: AbsTop}
	absBot = AbsVal{Kind: AbsBot}
)

// absRange normalizes an interval, collapsing to ⊤ if the bounds are
// inverted (callers construct only non-empty intervals) or stray beyond the
// sentinels.
func absRange(lo, hi int64) AbsVal {
	if lo > hi || lo < -absInf || hi > absInf {
		return absTop
	}
	return AbsVal{Kind: AbsRange, Lo: lo, Hi: hi}
}

// absConstVal wraps a concrete value; ints become one-point ranges.
func absConstVal(v value.Value) AbsVal {
	switch v.Kind() {
	case value.KindInt:
		return absRange(v.MustInt(), v.MustInt())
	case value.KindBool, value.KindString:
		return AbsVal{Kind: AbsConst, V: v}
	default:
		// Lists and records are not scalar: ⊤.
		return absTop
	}
}

// Singleton returns the concrete value v denotes, if it denotes exactly one.
func (v AbsVal) Singleton() (value.Value, bool) {
	switch v.Kind {
	case AbsConst:
		return v.V, true
	case AbsRange:
		if v.Lo == v.Hi {
			return value.Int(v.Lo), true
		}
	}
	return value.Value{}, false
}

// Bounded reports whether v is an interval with both bounds known (no
// widening sentinel). The dead-branch pass only materializes solver
// variables for bounded locals.
func (v AbsVal) Bounded() bool {
	return v.Kind == AbsRange && v.Lo > -absInf && v.Hi < absInf
}

// String renders the lattice element for diagnostics.
func (v AbsVal) String() string {
	switch v.Kind {
	case AbsBot:
		return "⊥"
	case AbsConst:
		return v.V.String()
	case AbsRange:
		if v.Lo == v.Hi {
			return fmt.Sprintf("%d", v.Lo)
		}
		lo, hi := "-∞", "+∞"
		if v.Lo > -absInf {
			lo = fmt.Sprintf("%d", v.Lo)
		}
		if v.Hi < absInf {
			hi = fmt.Sprintf("%d", v.Hi)
		}
		return fmt.Sprintf("[%s,%s]", lo, hi)
	default:
		return "⊤"
	}
}

// join is the least upper bound.
func join(a, b AbsVal) AbsVal {
	switch {
	case a.Kind == AbsBot:
		return b
	case b.Kind == AbsBot:
		return a
	case a.Kind == AbsTop || b.Kind == AbsTop:
		return absTop
	case a.Kind == AbsConst && b.Kind == AbsConst:
		if a.V.Equal(b.V) {
			return a
		}
		return absTop
	case a.Kind == AbsRange && b.Kind == AbsRange:
		return absRange(min(a.Lo, b.Lo), max(a.Hi, b.Hi))
	default:
		return absTop
	}
}

// widen accelerates convergence along back edges: any bound of new that is
// not stable w.r.t. old is dropped to its sentinel. Unlike join, widen is
// not symmetric — old is the previous fixed-point candidate, new the value
// flowing in.
func widen(old, new AbsVal) AbsVal {
	if old.Kind == AbsBot {
		return new
	}
	if old.Kind != AbsRange || new.Kind != AbsRange {
		if absEq(old, new) {
			return old
		}
		return absTop
	}
	lo, hi := old.Lo, old.Hi
	if new.Lo < lo {
		lo = -absInf
	}
	if new.Hi > hi {
		hi = absInf
	}
	return absRange(lo, hi)
}

func absEq(a, b AbsVal) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case AbsConst:
		return a.V.Equal(b.V)
	case AbsRange:
		return a.Lo == b.Lo && a.Hi == b.Hi
	default:
		return true
	}
}

// satAdd adds two bounds with saturation at the sentinels, for the interval
// and the zone domain alike. A sentinel operand is absorbing: it yields the
// sentinel of its own direction (+absInf before -absInf, since an unknown
// bound stays unknown), so a widened bound never moves back into range.
// Finite operands lie strictly inside ±absInf, so their raw sum cannot
// overflow int64; a sum beyond the sentinels clamps to them.
func satAdd(a, b int64) int64 {
	switch {
	case a >= absInf || b >= absInf:
		return absInf
	case a <= -absInf || b <= -absInf:
		return -absInf
	}
	return max(-absInf, min(absInf, a+b))
}

// AbsEnv maps variable names to abstract values. Absent names are ⊥ for
// join purposes; consumers treat them as ⊤ (the variable may be undefined,
// which the use-before-assign pass reports separately).
type AbsEnv map[string]AbsVal

// get treats absence as ⊥ (dataflow identity).
func (e AbsEnv) get(name string) AbsVal {
	if v, ok := e[name]; ok {
		return v
	}
	return absBot
}

// Lookup is the consumer-facing accessor: absence degrades to ⊤.
func (e AbsEnv) Lookup(name string) AbsVal {
	if v, ok := e[name]; ok && v.Kind != AbsBot {
		return v
	}
	return absTop
}

func (e AbsEnv) clone() AbsEnv {
	cp := make(AbsEnv, len(e))
	for k, v := range e {
		cp[k] = v
	}
	return cp
}

// AbsState is the abstract-interpretation solution: for every CFG node, the
// environment holding on entry (before the node's own statement executes —
// for If and For nodes, the environment the condition / bounds are
// evaluated in).
type AbsState struct {
	cfg *CFG
	in  []AbsEnv

	// Iterations counts worklist visits; FuzzAbsIntTermination asserts it
	// stays under the analytic bound.
	Iterations int
	// Capped reports that the hard iteration cap fired and every variable
	// was degraded to ⊤ (still sound, maximally imprecise).
	Capped bool
}

// EnvAt returns the entry environment of the statement at the given
// structural path ("body[2].then[0]"), or false if the path names no node.
func (a *AbsState) EnvAt(path string) (AbsEnv, bool) {
	id, ok := a.cfg.NodeAt(path)
	if !ok {
		return nil, false
	}
	return a.in[id], true
}

// maxIterations is the hard cap: comfortably above the analytic bound of
// O(|nodes| · |vars| · lattice-height) worklist visits.
func (a *AbsState) maxIterations() int {
	vars := len(a.cfg.Prog.Params)
	for _, n := range a.cfg.Nodes {
		vars += len(n.Defs)
	}
	return (len(a.cfg.Nodes) + 1) * (vars + 2) * 8
}

// SolveAbsInt runs the interval analysis to a fixed point over cfg.
func SolveAbsInt(cfg *CFG) *AbsState {
	a := &AbsState{cfg: cfg, in: make([]AbsEnv, len(cfg.Nodes))}

	// Entry environment: parameters at their declared domains.
	entry := AbsEnv{}
	for _, prm := range cfg.Prog.Params {
		if prm.Kind == value.KindInt && prm.Lo <= prm.Hi {
			entry[prm.Name] = absRange(prm.Lo, prm.Hi)
		} else {
			entry[prm.Name] = absTop
		}
	}
	a.in[cfg.Entry] = entry
	a.Iterations, a.Capped = fixpoint(cfg, a.in, a.maxIterations(), a)
	return a
}

// flow applies the node's statement once; every successor sees the result.
func (a *AbsState) flow(n *Node) func(succ int) AbsEnv {
	out := transfer(a.cfg.Prog, n, a.in[n.ID])
	return func(int) AbsEnv { return out }
}

// merge joins src into dst, widening when the edge is a back edge. It
// returns the new environment if anything changed, false otherwise.
func (a *AbsState) merge(dst, src AbsEnv, back bool, _ int) (AbsEnv, bool) {
	if dst == nil {
		return src.clone(), true
	}
	var out AbsEnv
	for name, sv := range src {
		ov := dst.get(name)
		nv := join(ov, sv)
		if back {
			nv = widen(ov, nv)
		}
		if !absEq(nv, ov) {
			if out == nil {
				out = dst.clone()
			}
			out[name] = nv
		}
	}
	return out, out != nil
}

// top forgets everything a reached environment knows.
func (a *AbsState) top(env AbsEnv) AbsEnv {
	if env == nil {
		return nil
	}
	top := make(AbsEnv, len(env))
	for name := range env {
		top[name] = absTop
	}
	return top
}

// transfer applies the node's statement to its entry environment.
func transfer(prog *lang.Program, n *Node, in AbsEnv) AbsEnv {
	if n.Stmt == nil || in == nil {
		return in
	}
	switch s := n.Stmt.(type) {
	case lang.Assign:
		out := in.clone()
		out[s.Dst] = absEval(s.E, prog, in)
		return out
	case lang.Get:
		// Store reads are unknown to the static analysis.
		out := in.clone()
		out[s.Dst] = absTop
		return out
	case lang.SetField:
		// Records are not tracked; the whole destination goes to ⊤.
		out := in.clone()
		out[s.Dst] = absTop
		return out
	case lang.For:
		// The node is the test-and-step point: successors (body head and
		// loop exit) see the induction variable within the loop interval.
		out := in.clone()
		out[s.Var] = forVarInterval(s, prog, in)
		return out
	default:
		return in
	}
}

// forVarInterval bounds a loop's induction variable: in the body it ranges
// over [from, to-1]; after the loop it holds the last body value — or, when
// the loop can be skipped entirely, whatever it held before the loop (the
// interpreter assigns the variable only inside iterations, so a zero-trip
// loop must not claim the variable landed in the loop interval).
func forVarInterval(s lang.For, prog *lang.Program, env AbsEnv) AbsVal {
	from := absEval(s.From, prog, env)
	to := absEval(s.To, prog, env)
	if from.Kind != AbsRange || to.Kind != AbsRange {
		return absTop
	}
	hi := to.Hi
	if hi > -absInf && hi < absInf {
		hi-- // i < to: the last value is at most to.Hi - 1
	}
	if hi < from.Lo {
		// The interval is empty on every input: the body never runs and the
		// variable keeps its incoming binding (⊥ when never assigned, so
		// dead-code queries inside the body see an unreachable binding).
		return env.get(s.Var)
	}
	iter := absRange(from.Lo, hi)
	if from.Hi < to.Lo {
		// At least one iteration on every input: the variable is freshly
		// bound within the loop interval.
		return iter
	}
	// The loop may be skipped on some inputs: join the zero-trip (incoming)
	// binding with the loop interval.
	return join(env.get(s.Var), iter)
}

// absEval abstractly evaluates an expression in env.
func absEval(e lang.Expr, prog *lang.Program, env AbsEnv) AbsVal {
	switch x := e.(type) {
	case lang.Const:
		return absConstVal(x.V)
	case lang.ParamRef:
		prm, ok := prog.Param(x.Name)
		if ok && prm.Kind == value.KindInt && prm.Lo <= prm.Hi {
			return absRange(prm.Lo, prm.Hi)
		}
		return absTop
	case lang.LocalRef:
		return env.Lookup(x.Name)
	case lang.Bin:
		return absBin(x.Op, absEval(x.L, prog, env), absEval(x.R, prog, env))
	case lang.Not:
		v := absEval(x.E, prog, env)
		if b, ok := v.V.AsBool(); v.Kind == AbsConst && ok {
			return absConstVal(value.Bool(!b))
		}
		return absTop
	case lang.Index:
		// Indexing a declared list parameter yields the element domain,
		// regardless of which index is read.
		if pr, ok := x.E.(lang.ParamRef); ok {
			if prm, found := prog.Param(pr.Name); found && prm.Elem != nil &&
				prm.Elem.Kind == value.KindInt && prm.Elem.Lo <= prm.Elem.Hi {
				return absRange(prm.Elem.Lo, prm.Elem.Hi)
			}
		}
		return absTop
	default:
		// Field reads, record literals: not scalar-tracked.
		return absTop
	}
}

// absBin is the abstract transfer of a binary operator.
func absBin(op lang.Op, l, r AbsVal) AbsVal {
	if l.Kind == AbsBot || r.Kind == AbsBot {
		// Unreachable operand: stay conservative rather than propagate ⊥.
		return absTop
	}
	switch op {
	case lang.OpAdd, lang.OpSub, lang.OpMul:
		if l.Kind != AbsRange || r.Kind != AbsRange {
			return absTop
		}
		return absArith(op, l, r)
	case lang.OpDiv, lang.OpMod:
		// Exactly foldable when both operands denote single values; the
		// rounding and sign subtleties of proper interval division are not
		// worth modelling beyond that.
		if lv, lok := l.Singleton(); lok {
			if rv, rok := r.Singleton(); rok {
				if v, err := lang.EvalBin(op, lv, rv); err == nil {
					return absConstVal(v)
				}
			}
		}
		return absTop
	case lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe:
		if l.Kind != AbsRange || r.Kind != AbsRange {
			return absTop
		}
		return absCompare(op, l, r)
	case lang.OpEq, lang.OpNe:
		return absEqNe(op, l, r)
	case lang.OpAnd, lang.OpOr:
		return absLogic(op, l, r)
	default:
		return absTop
	}
}

// mulLimit bounds the operands of an abstract multiplication: products of
// in-range operands then fit int64 with room to spare, and anything larger
// degrades to ⊤.
const mulLimit = int64(1) << 31

func absArith(op lang.Op, l, r AbsVal) AbsVal {
	switch op {
	case lang.OpAdd:
		return absRange(satAdd(l.Lo, r.Lo), satAdd(l.Hi, r.Hi))
	case lang.OpSub:
		return absRange(satAdd(l.Lo, -r.Hi), satAdd(l.Hi, -r.Lo))
	default: // OpMul
		if l.Lo < -mulLimit || l.Hi > mulLimit || r.Lo < -mulLimit || r.Hi > mulLimit {
			return absTop
		}
		lo, hi := l.Lo*r.Lo, l.Lo*r.Lo
		for _, p := range []int64{l.Lo * r.Hi, l.Hi * r.Lo, l.Hi * r.Hi} {
			lo, hi = min(lo, p), max(hi, p)
		}
		return absRange(lo, hi)
	}
}

func absCompare(op lang.Op, l, r AbsVal) AbsVal {
	// Decide the comparison when the intervals are ordered or disjoint.
	switch op {
	case lang.OpLt:
		if l.Hi < r.Lo {
			return absConstVal(value.Bool(true))
		}
		if l.Lo >= r.Hi {
			return absConstVal(value.Bool(false))
		}
	case lang.OpLe:
		if l.Hi <= r.Lo {
			return absConstVal(value.Bool(true))
		}
		if l.Lo > r.Hi {
			return absConstVal(value.Bool(false))
		}
	case lang.OpGt:
		if l.Lo > r.Hi {
			return absConstVal(value.Bool(true))
		}
		if l.Hi <= r.Lo {
			return absConstVal(value.Bool(false))
		}
	case lang.OpGe:
		if l.Lo >= r.Hi {
			return absConstVal(value.Bool(true))
		}
		if l.Hi < r.Lo {
			return absConstVal(value.Bool(false))
		}
	}
	return absTop
}

func absEqNe(op lang.Op, l, r AbsVal) AbsVal {
	eqTrue := func() AbsVal { return absConstVal(value.Bool(op == lang.OpEq)) }
	eqFalse := func() AbsVal { return absConstVal(value.Bool(op == lang.OpNe)) }
	if lv, lok := l.Singleton(); lok {
		if rv, rok := r.Singleton(); rok {
			if lv.Equal(rv) {
				return eqTrue()
			}
			return eqFalse()
		}
	}
	if l.Kind == AbsRange && r.Kind == AbsRange && (l.Hi < r.Lo || r.Hi < l.Lo) {
		return eqFalse()
	}
	return absTop
}

func absLogic(op lang.Op, l, r AbsVal) AbsVal {
	lb, lok := l.V.AsBool()
	rb, rok := r.V.AsBool()
	lok = lok && l.Kind == AbsConst
	rok = rok && r.Kind == AbsConst
	if op == lang.OpAnd {
		if (lok && !lb) || (rok && !rb) {
			return absConstVal(value.Bool(false))
		}
		if lok && rok {
			return absConstVal(value.Bool(lb && rb))
		}
		return absTop
	}
	if (lok && lb) || (rok && rb) {
		return absConstVal(value.Bool(true))
	}
	if lok && rok {
		return absConstVal(value.Bool(lb || rb))
	}
	return absTop
}
