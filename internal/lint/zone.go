package lint

import (
	"prognosticator/internal/lang"
	"prognosticator/internal/value"
)

// Zone (difference-bound matrix) relational abstract interpretation over the
// CFG.
//
// Where the interval domain (absint.go) tracks each scalar variable in
// isolation, the zone domain tracks pairwise difference constraints
//
//	v - w ≤ c
//
// over the program's parameters and scalar locals, plus a synthetic "zero"
// variable x0 ≡ 0 so that unary bounds are the special cases v - x0 ≤ c
// (v ≤ c) and x0 - v ≤ c (v ≥ -c). The state is an (n+1)×(n+1) matrix of
// int64 bounds with +absInf meaning "no constraint"; the canonical form is
// the shortest-path closure (Floyd–Warshall over the constraint graph), and
// the zone is empty (⊥) exactly when closure exposes a negative self-cycle.
//
// Lattice operations follow the standard zone recipe (Miné):
//
//   - join is the entrywise max of two closed matrices (the tightest zone
//     containing both);
//   - widening keeps an entry only if the incoming value does not exceed it
//     and drops unstable entries to +absInf — and, crucially for
//     termination, stored (widened) matrices are NEVER re-closed in place:
//     closure could re-derive a just-dropped bound and oscillate. Closure is
//     applied to clones, at transfer entry and at query time.
//
// Soundness contract: the zone entering a node over-approximates every
// concrete store reaching it — for every closed constraint v - w ≤ c and
// every concrete state at that point where both v and w hold defined
// integers, the inequality holds. The soundness checker replays sampled
// concrete executions through lang.RunTrace and validates exactly this;
// FuzzZoneVsInterval additionally checks the zone's unary bounds are never
// looser than the interval solution's (guaranteed by construction: merges
// clamp unary rows/columns with the completed interval solution).
//
// Two variants are solved per program:
//
//   - the guard zone (SolveGuardZone: guards assumed, interval-clamped)
//     refines along If edges and For trip-count splits; the dead-branch and
//     loop-bound passes and the soundness validator consume it;
//   - the alias zone (SolveAliasZone: no interval coupling, assignment atoms
//     only) tracks exactly the equalities v = u + c that arise from
//     assignment chains; taint.KeyDeterminism consumes it as an equality
//     oracle to upgrade key parts to proven-direct. Restricting it to
//     assignment atoms keeps the static claim aligned with the symbolic
//     executor: an equality derived from a guard (`if v == u`) holds only on
//     one path, and one derived from interval evaluation (`v = u * 0`) may
//     not be folded by the executor, so neither may justify a Direct mark.

// Zone is one DBM: m[i*n+j] bounds var(i) - var(j) ≤ m[i*n+j], with index 0
// the zero variable. An entry ≥ absInf means unconstrained. bottom marks the
// empty zone (all constraint content is then meaningless).
type Zone struct {
	n      int
	m      []int64
	bottom bool
}

// newZone returns the top zone over n variables (diagonal 0, rest +∞).
func newZone(n int) *Zone {
	z := &Zone{n: n, m: make([]int64, n*n)}
	for i := range z.m {
		z.m[i] = absInf
	}
	for i := 0; i < n; i++ {
		z.m[i*n+i] = 0
	}
	return z
}

func (z *Zone) clone() *Zone {
	cp := &Zone{n: z.n, m: make([]int64, len(z.m)), bottom: z.bottom}
	copy(cp.m, z.m)
	return cp
}

// Bottom reports whether the zone is empty (no concrete state satisfies it).
func (z *Zone) Bottom() bool { return z.bottom }

func (z *Zone) at(i, j int) int64 { return z.m[i*z.n+j] }

// tighten strengthens var(i) - var(j) ≤ c (keeps the smaller bound).
func (z *Zone) tighten(i, j int, c int64) {
	if c < z.m[i*z.n+j] {
		z.m[i*z.n+j] = c
	}
}

// forget drops every constraint mentioning var(v) (havoc on assignment from
// an untracked expression).
func (z *Zone) forget(v int) {
	for i := 0; i < z.n; i++ {
		if i == v {
			continue
		}
		z.m[v*z.n+i] = absInf
		z.m[i*z.n+v] = absInf
	}
	z.m[v*z.n+v] = 0
}

// shift models the invertible self-assignment v = v + c: every bound
// involving v moves by ±c, nothing is forgotten.
func (z *Zone) shift(v int, c int64) {
	for i := 0; i < z.n; i++ {
		if i == v {
			continue
		}
		z.m[v*z.n+i] = satAdd(z.m[v*z.n+i], c)
		z.m[i*z.n+v] = satAdd(z.m[i*z.n+v], -c)
	}
}

// assignAtom models v = atom(j) + c after a forget of v.
func (z *Zone) assignAtom(v, j int, c int64) {
	z.forget(v)
	z.m[v*z.n+j] = c
	z.m[j*z.n+v] = -c
}

// close canonicalizes to the shortest-path closure and detects emptiness
// (negative self-cycle). Never call on a stored, widened matrix — only on
// clones (see the package comment on widening/closure interaction).
func (z *Zone) close() {
	if z.bottom {
		return
	}
	n := z.n
	for k := 0; k < n; k++ {
		ko := k * n
		for i := 0; i < n; i++ {
			ik := z.m[i*n+k]
			if ik >= absInf {
				continue
			}
			io := i * n
			for j := 0; j < n; j++ {
				if s := satAdd(ik, z.m[ko+j]); s < z.m[io+j] {
					z.m[io+j] = s
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if z.m[i*n+i] < 0 {
			z.bottom = true
			return
		}
	}
}

// joinZ is the least upper bound of two closed zones: entrywise max, with ⊥
// as identity. It consumes its arguments (may return either).
func joinZ(a, b *Zone) *Zone {
	if a == nil || a.bottom {
		return b
	}
	if b == nil || b.bottom {
		return a
	}
	for k, bv := range b.m {
		if bv > a.m[k] {
			a.m[k] = bv
		}
	}
	return a
}

// ZoneState is the zone-analysis solution: for every CFG node, the zone
// holding on entry (nil = never reached, Bottom = reached only along
// infeasible paths).
type ZoneState struct {
	cfg *CFG
	// abs is the completed interval solution the guard zone is coupled to,
	// and nil for the alias zone, whose equalities must come from assignment
	// chains alone. The guard zone refines along If edges (then: cond, else:
	// ¬cond), splits For edges by provable trip count, and at every merge
	// clamps the unary row/column of each local with the interval bounds at
	// that node. The clamp is what makes it never less precise than the
	// interval domain (FuzzZoneVsInterval's invariant) and caps the growth
	// of unary entries.
	abs *AbsState

	// Variable indexing: index 0 is the zero variable, 1..nParams the
	// parameters in declaration order, the rest the sorted locals.
	names    []string
	nParams  int
	paramIdx map[string]int
	localIdx map[string]int

	in []*Zone

	// bodyDefs caches, per For node, the set of locals (re)assigned anywhere
	// in its body — used to require loop-invariance of relational bounds.
	bodyDefs map[int]map[string]bool

	// Iterations counts worklist visits; Capped reports the hard iteration
	// cap fired and every zone was degraded to ⊤ (sound, maximally
	// imprecise).
	Iterations int
	Capped     bool
}

// SolveGuardZone solves the guard zone over the CFG abs was solved on,
// assuming guards and clamped by abs: the variant the dead-branch and
// loop-bound passes and the soundness validator consume.
func SolveGuardZone(abs *AbsState) *ZoneState { return solveZone(abs.cfg, abs) }

// SolveAliasZone solves the alias zone over cfg: assignment chains only, no
// guard assumptions and no interval coupling. It is the equality oracle of
// taint.KeyDeterminismOracle.
func SolveAliasZone(cfg *CFG) *ZoneState { return solveZone(cfg, nil) }

func solveZone(cfg *CFG, abs *AbsState) *ZoneState {
	zs := &ZoneState{
		cfg:      cfg,
		abs:      abs,
		paramIdx: map[string]int{},
		localIdx: map[string]int{},
		in:       make([]*Zone, len(cfg.Nodes)),
		bodyDefs: map[int]map[string]bool{},
	}
	zs.names = []string{"0"}
	for _, prm := range cfg.Prog.Params {
		zs.paramIdx[prm.Name] = len(zs.names)
		zs.names = append(zs.names, prm.Name)
	}
	zs.nParams = len(cfg.Prog.Params)
	var locals []string
	for _, n := range cfg.Nodes {
		locals = append(locals, n.Defs...)
	}
	for _, name := range sortDedup(locals) {
		zs.localIdx[name] = len(zs.names)
		zs.names = append(zs.names, name)
	}

	// Entry zone: parameters constrained to their declared domains.
	entry := newZone(len(zs.names))
	for _, prm := range cfg.Prog.Params {
		if prm.Kind == value.KindInt && prm.Lo <= prm.Hi {
			p := zs.paramIdx[prm.Name]
			entry.tighten(p, 0, prm.Hi)
			entry.tighten(0, p, -prm.Lo)
		}
	}
	zs.in[cfg.Entry] = entry
	zs.Iterations, zs.Capped = fixpoint(cfg, zs.in, zs.maxIterations(), zs)
	return zs
}

// flow closes the node's entry zone once and applies its statement per
// out-edge.
func (zs *ZoneState) flow(n *Node) func(succ int) *Zone {
	var base *Zone
	if cur := zs.in[n.ID]; !cur.bottom {
		base = cur.clone()
		base.close()
	}
	return func(succ int) *Zone {
		if base == nil || base.bottom {
			// The node is unreachable (stored ⊥, or closure exposed a
			// contradiction): propagate ⊥ so successors still count as
			// visited, matching the interval analysis' reachable set.
			bot := newZone(len(zs.names))
			bot.bottom = true
			return bot
		}
		return zs.transferEdge(n, succ, base.clone())
	}
}

// maxIterations is the hard cap, comfortably above the analytic bound: each
// matrix entry climbs monotonically and every cycle passes a widening edge.
func (zs *ZoneState) maxIterations() int {
	n := len(zs.names)
	return (len(zs.cfg.Nodes) + 1) * (n + 2) * (n + 2) * 8
}

// top forgets everything a reached zone knows.
func (zs *ZoneState) top(z *Zone) *Zone {
	if z == nil {
		return nil
	}
	return newZone(len(zs.names))
}

// merge joins src into the stored zone dst of succ, widening on back edges
// and clamping unary entries with the interval solution. It returns the new
// zone if anything changed, false otherwise.
func (zs *ZoneState) merge(dst, src *Zone, back bool, succ int) (*Zone, bool) {
	if dst == nil || (dst.bottom && !src.bottom) {
		out := src.clone()
		zs.clamp(out, succ)
		return out, true
	}
	if src.bottom {
		return nil, false
	}
	out := dst.clone()
	for k, sv := range src.m {
		if sv > out.m[k] {
			if back {
				out.m[k] = absInf
			} else {
				out.m[k] = sv
			}
		}
	}
	zs.clamp(out, succ)
	for k := range out.m {
		if out.m[k] != dst.m[k] {
			return out, true
		}
	}
	return nil, false
}

// clamp strengthens the unary entries of every local with the interval
// bounds holding at node — the zone ⊑ interval coupling. The interval
// solution is complete and fixed, so the clamp ceiling never moves and
// stored entries still grow monotonically.
func (zs *ZoneState) clamp(z *Zone, node int) {
	if zs.abs == nil || z.bottom {
		return
	}
	env := zs.abs.in[node]
	if env == nil {
		return
	}
	for name, j := range zs.localIdx {
		v, ok := env[name]
		if !ok || v.Kind != AbsRange {
			continue
		}
		if v.Hi < absInf {
			z.tighten(j, 0, v.Hi)
		}
		if v.Lo > -absInf {
			z.tighten(0, j, -v.Lo)
		}
	}
}

// transferEdge applies node n's statement to the closed zone z for the edge
// n → succ. Edge-sensitivity only matters for If (guard assumption per arm)
// and For (trip-count split); every other statement treats all successors
// alike.
func (zs *ZoneState) transferEdge(n *Node, succ int, z *Zone) *Zone {
	switch s := n.Stmt.(type) {
	case lang.Assign:
		dst, ok := zs.localIdx[s.Dst]
		if !ok {
			return z
		}
		if j, c, aok := zs.atomOffset(s.E); aok {
			if j == dst {
				z.shift(dst, c)
			} else {
				z.assignAtom(dst, j, c)
			}
			z.close()
			return z
		}
		z.forget(dst)
		if zs.abs != nil {
			// Fall back to interval evaluation for unary bounds on the
			// assigned variable. The alias zone skips this: an interval-
			// derived singleton (v = u * 0 → v = 0) is not an assignment
			// chain and must not feed the equality oracle.
			if v := absEval(s.E, zs.cfg.Prog, zs.absEnvOf(z)); v.Kind == AbsRange {
				if v.Hi < absInf {
					z.tighten(dst, 0, v.Hi)
				}
				if v.Lo > -absInf {
					z.tighten(0, dst, -v.Lo)
				}
				z.close()
			}
		}
		return z
	case lang.Get:
		if dst, ok := zs.localIdx[s.Dst]; ok {
			z.forget(dst)
		}
		return z
	case lang.SetField:
		if dst, ok := zs.localIdx[s.Dst]; ok {
			z.forget(dst)
		}
		return z
	case lang.If:
		if zs.abs == nil {
			return z
		}
		thenHead, elseHead := n.Heads[0], n.Heads[1]
		switch {
		case thenHead >= 0 && succ == thenHead:
			return zs.assume(z, s.Cond, false)
		case elseHead >= 0 && succ == elseHead:
			return zs.assume(z, s.Cond, true)
		case thenHead < 0 && elseHead < 0:
			return z // no-op If: the edge carries both polarities
		case thenHead < 0:
			// Fall-through past an empty then-arm happens iff cond is true.
			return zs.assume(z, s.Cond, false)
		default:
			// Fall-through past an empty else-arm happens iff cond is false.
			return zs.assume(z, s.Cond, true)
		}
	case lang.For:
		v, ok := zs.localIdx[s.Var]
		if !ok {
			return z
		}
		if zs.abs == nil {
			z.forget(v)
			return z
		}
		bodyHead := n.Heads[0]
		isBody := succ == bodyHead || (bodyHead < 0 && succ == n.ID)
		return zs.forTransfer(n, s, z, v, isBody)
	default:
		// Put/Del/Emit and the synthetic entry/exit define nothing.
		return z
	}
}

// forTransfer splits the For node's out-edges by provable trip count:
//
//   - provably empty (from ≥ to on every input): the body edge is ⊥ and the
//     exit edge keeps the incoming zone untouched — in particular the loop
//     variable retains its pre-loop constraints (zero-trip semantics: the
//     concrete interpreter never assigns it);
//   - provably entered (from < to on every input): both edges see the loop
//     zone (variable havocked, then bounded);
//   - otherwise: body sees the loop zone, exit the join of both.
func (zs *ZoneState) forTransfer(n *Node, s lang.For, z *Zone, v int, isBody bool) *Zone {
	enter := zs.assume(z.clone(), lang.Bin{Op: lang.OpLt, L: s.From, R: s.To}, false)
	if enter.bottom {
		if isBody {
			return enter
		}
		return z
	}
	skip := zs.assume(z.clone(), lang.Bin{Op: lang.OpGe, L: s.From, R: s.To}, false)
	definite := skip.bottom

	loop := z.clone()
	loop.forget(v)
	// Relational links: from and to are evaluated once, at loop entry, so
	// when a bound is an atom ± c whose base is loop-invariant (a constant,
	// a parameter, or a local never reassigned in the body), the stored
	// relation between the base and the induction variable holds on entry to
	// every iteration: var ≥ from and var ≤ to - 1.
	if j, c, ok := zs.atomOffset(s.From); ok && zs.loopInvariant(n, s, j, v) {
		loop.tighten(j, v, -c)
	}
	if j, c, ok := zs.atomOffset(s.To); ok && zs.loopInvariant(n, s, j, v) {
		loop.tighten(v, j, c-1)
	}
	// Unary interval fallback from the zone-refined bound expressions.
	if b := zs.exprBounds(z, s.From); b.Kind == AbsRange && b.Lo > -absInf {
		loop.tighten(0, v, -b.Lo)
	}
	if b := zs.exprBounds(z, s.To); b.Kind == AbsRange && b.Hi < absInf {
		loop.tighten(v, 0, b.Hi-1)
	}
	loop.close()
	if isBody || definite {
		return loop
	}
	exit := z.clone()
	return joinZ(exit, loop)
}

// loopInvariant reports whether atom index j is safe to relate to the
// induction variable across iterations: the zero variable, a parameter, or
// a local not (re)assigned anywhere in the loop body, and not the induction
// variable itself.
func (zs *ZoneState) loopInvariant(n *Node, s lang.For, j, v int) bool {
	if j == v {
		return false
	}
	if j <= zs.nParams {
		return true // zero var or parameter
	}
	defs, ok := zs.bodyDefs[n.ID]
	if !ok {
		defs = map[string]bool{}
		lang.Walk(lang.Nested(s, n.Path)[0], func(_ string, st lang.Stmt) {
			for _, d := range stmtDefs(st) {
				defs[d] = true
			}
		})
		zs.bodyDefs[n.ID] = defs
	}
	return !defs[zs.names[j]]
}

// assume refines z with cond (negated flips the polarity) and returns it.
// Unconvertible conditions leave z unchanged — always sound.
func (zs *ZoneState) assume(z *Zone, cond lang.Expr, negated bool) *Zone {
	if z.bottom {
		return z
	}
	switch x := cond.(type) {
	case lang.Not:
		return zs.assume(z, x.E, !negated)
	case lang.Const:
		if b, ok := x.V.AsBool(); ok && b == negated {
			z.bottom = true
		}
		return z
	case lang.Bin:
		op := x.Op
		if negated {
			switch op {
			case lang.OpAnd: // ¬(L ∧ R) = ¬L ∨ ¬R
				l := zs.assume(z.clone(), x.L, true)
				return joinZ(zs.assume(z, x.R, true), l)
			case lang.OpOr: // ¬(L ∨ R) = ¬L ∧ ¬R
				return zs.assume(zs.assume(z, x.L, true), x.R, true)
			case lang.OpLt:
				op = lang.OpGe
			case lang.OpLe:
				op = lang.OpGt
			case lang.OpGt:
				op = lang.OpLe
			case lang.OpGe:
				op = lang.OpLt
			case lang.OpEq:
				op = lang.OpNe
			case lang.OpNe:
				op = lang.OpEq
			default:
				return z
			}
		} else {
			switch op {
			case lang.OpAnd:
				return zs.assume(zs.assume(z, x.L, false), x.R, false)
			case lang.OpOr:
				l := zs.assume(z.clone(), x.L, false)
				return joinZ(zs.assume(z, x.R, false), l)
			}
		}
		return zs.assumeCmp(z, op, x.L, x.R)
	}
	return z
}

// assumeCmp refines z with the comparison L op R.
func (zs *ZoneState) assumeCmp(z *Zone, op lang.Op, L, R lang.Expr) *Zone {
	li, lc, lok := zs.atomOffset(L)
	ri, rc, rok := zs.atomOffset(R)
	switch {
	case lok && rok:
		// (var(li)+lc) op (var(ri)+rc): difference constraints both ways.
		switch op {
		case lang.OpLt:
			z.tighten(li, ri, rc-lc-1)
		case lang.OpLe:
			z.tighten(li, ri, rc-lc)
		case lang.OpGt:
			z.tighten(ri, li, lc-rc-1)
		case lang.OpGe:
			z.tighten(ri, li, lc-rc)
		case lang.OpEq:
			z.tighten(li, ri, rc-lc)
			z.tighten(ri, li, lc-rc)
		case lang.OpNe:
			// Disjunction: (L < R) ∨ (L > R), joined.
			lt := z.clone()
			lt.tighten(li, ri, rc-lc-1)
			lt.close()
			z.tighten(ri, li, lc-rc-1)
			z.close()
			return joinZ(z, lt)
		default:
			return z
		}
		z.close()
		return z
	case lok:
		return zs.assumeAtomVsExpr(z, op, li, lc, R)
	case rok:
		return zs.assumeAtomVsExpr(z, flipCmp(op), ri, rc, L)
	default:
		return z
	}
}

// flipCmp mirrors a comparison so the atom ends up on the left.
func flipCmp(op lang.Op) lang.Op {
	switch op {
	case lang.OpLt:
		return lang.OpGt
	case lang.OpLe:
		return lang.OpGe
	case lang.OpGt:
		return lang.OpLt
	case lang.OpGe:
		return lang.OpLe
	default:
		return op // Eq/Ne are symmetric
	}
}

// assumeAtomVsExpr refines z with (var(i)+c) op e where e is not an atom,
// using e's interval bounds.
func (zs *ZoneState) assumeAtomVsExpr(z *Zone, op lang.Op, i int, c int64, e lang.Expr) *Zone {
	b := zs.exprBounds(z, e)
	if b.Kind != AbsRange {
		return z
	}
	switch op {
	case lang.OpLt: // var + c < e ≤ Hi  ⇒  var ≤ Hi - c - 1
		if b.Hi < absInf {
			z.tighten(i, 0, b.Hi-1-c)
		}
	case lang.OpLe:
		if b.Hi < absInf {
			z.tighten(i, 0, b.Hi-c)
		}
	case lang.OpGt: // var + c > e ≥ Lo  ⇒  var ≥ Lo - c + 1
		if b.Lo > -absInf {
			z.tighten(0, i, c-b.Lo-1)
		}
	case lang.OpGe:
		if b.Lo > -absInf {
			z.tighten(0, i, c-b.Lo)
		}
	case lang.OpEq:
		if b.Hi < absInf {
			z.tighten(i, 0, b.Hi-c)
		}
		if b.Lo > -absInf {
			z.tighten(0, i, c-b.Lo)
		}
	default: // Ne against an interval: no refinement
		return z
	}
	z.close()
	return z
}

// atomOffset decomposes e as var(j) + c: a constant int (zero variable), a
// parameter or local reference, or such an atom plus/minus integer
// constants. Non-integer parameter/local references are atoms at offset 0
// (pure equality tracking). Offsets that would reach the sentinels fail the
// decomposition.
func (zs *ZoneState) atomOffset(e lang.Expr) (int, int64, bool) {
	switch x := e.(type) {
	case lang.Const:
		if i, ok := x.V.AsInt(); ok && i > -absInf && i < absInf {
			return 0, i, true
		}
	case lang.ParamRef:
		if j, ok := zs.paramIdx[x.Name]; ok {
			return j, 0, true
		}
	case lang.LocalRef:
		if j, ok := zs.localIdx[x.Name]; ok {
			return j, 0, true
		}
	case lang.Bin:
		if x.Op != lang.OpAdd && x.Op != lang.OpSub {
			break
		}
		if j, c, ok := zs.atomOffset(x.L); ok {
			if i, iok := constInt(x.R); iok {
				if x.Op == lang.OpSub {
					i = -i
				}
				if s := c + i; s > -absInf && s < absInf {
					return j, s, true
				}
			}
		}
		if x.Op == lang.OpAdd {
			if i, iok := constInt(x.L); iok {
				if j, c, ok := zs.atomOffset(x.R); ok {
					if s := c + i; s > -absInf && s < absInf {
						return j, s, true
					}
				}
			}
		}
	}
	return 0, 0, false
}

// constInt extracts a small integer literal.
func constInt(e lang.Expr) (int64, bool) {
	if c, ok := e.(lang.Const); ok {
		if i, iok := c.V.AsInt(); iok && i > -absInf && i < absInf {
			return i, true
		}
	}
	return 0, false
}

// exprBounds evaluates e to an interval using both the zone's unary
// constraints (which include guard refinements the interval solution lacks)
// and interval evaluation, intersected. z must be closed.
func (zs *ZoneState) exprBounds(z *Zone, e lang.Expr) AbsVal {
	ab := absEval(e, zs.cfg.Prog, zs.absEnvOf(z))
	if j, c, ok := zs.atomOffset(e); ok {
		lo, hi := -absInf, absInf
		if j == 0 {
			lo, hi = c, c
		} else {
			if ub := z.at(j, 0); ub < absInf {
				hi = satAdd(ub, c)
			}
			if lb := z.at(0, j); lb < absInf {
				lo = -satAdd(lb, -c)
			}
		}
		if ab.Kind == AbsRange {
			lo, hi = max(lo, ab.Lo), min(hi, ab.Hi)
		}
		if lo <= hi && (lo > -absInf || hi < absInf) {
			return AbsVal{Kind: AbsRange, Lo: lo, Hi: hi}
		}
	}
	return ab
}

// absEnvOf projects the zone's unary bounds onto an interval environment
// for absEval. Locals without finite bounds are omitted (⊤ on lookup).
func (zs *ZoneState) absEnvOf(z *Zone) AbsEnv {
	env := AbsEnv{}
	for name, j := range zs.localIdx {
		lo, hi := -absInf, absInf
		if ub := z.at(j, 0); ub < absInf {
			hi = ub
		}
		if lb := z.at(0, j); lb < absInf {
			lo = -lb
		}
		if lo > -absInf || hi < absInf {
			env[name] = absRange(lo, hi)
		}
	}
	return env
}

// --- query API ---

// At returns the closed zone on entry to the statement at path, or nil when
// the path names no node or the node was never reached.
func (zs *ZoneState) At(path string) *Zone {
	id, ok := zs.cfg.NodeAt(path)
	if !ok {
		return nil
	}
	return zs.zoneAt(id)
}

// zoneAt is At by node ID.
func (zs *ZoneState) zoneAt(id int) *Zone {
	if id < 0 || id >= len(zs.in) || zs.in[id] == nil {
		return nil
	}
	z := zs.in[id].clone()
	z.close()
	return z
}

// CondDead reports whether assuming cond (negated: its negation) at path is
// provably infeasible — the corresponding branch arm is dead. Unreachable
// or ⊥ nodes and capped solutions report false: the enclosing dead region
// is someone else's finding.
func (zs *ZoneState) CondDead(path string, cond lang.Expr, negated bool) bool {
	if zs.Capped {
		return false
	}
	z := zs.At(path)
	if z == nil || z.bottom {
		return false
	}
	return zs.assume(z, cond, negated).bottom
}

// ExprBoundsAt returns the interval the expression is confined to at the
// statement path, per the zone (guard-refined) and interval evaluation
// combined. ok is false at unreachable/⊥ nodes or on a capped solution.
func (zs *ZoneState) ExprBoundsAt(path string, e lang.Expr) (AbsVal, bool) {
	if zs.Capped {
		return absTop, false
	}
	z := zs.At(path)
	if z == nil || z.bottom {
		return absTop, false
	}
	return zs.exprBounds(z, e), true
}

// InputResolvable implements taint.EqualityOracle over the alias zone: the
// named local, at the given statement path, provably equals an integer
// constant or a parameter plus a constant offset on every execution
// reaching that point. Capped solutions and unreachable/⊥ nodes resolve
// nothing.
func (zs *ZoneState) InputResolvable(path, name string) bool {
	if zs.Capped {
		return false
	}
	j, ok := zs.localIdx[name]
	if !ok {
		return false
	}
	z := zs.At(path)
	if z == nil || z.bottom {
		return false
	}
	// Constant: v ≤ c and v ≥ c.
	if ub, lb := z.at(j, 0), z.at(0, j); ub < absInf && lb < absInf && ub == -lb {
		return true
	}
	// Parameter plus fixed offset: v - p ≤ c and p - v ≤ -c.
	for p := 1; p <= zs.nParams; p++ {
		if d := z.at(j, p); d < absInf && z.at(p, j) < absInf && z.at(p, j) == -d {
			return true
		}
	}
	return false
}
