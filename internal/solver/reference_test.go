package solver

import (
	"sort"

	"prognosticator/internal/lang"
	"prognosticator/internal/sym"
	"prognosticator/internal/value"
)

// This file is the reference solver: the map-based implementation that
// preceded the prepared path constraint, with the one fix that it visits a
// linear atom's coefficients in the order their variables first occur.
// It is the oracle of FuzzSolverMatchesReference, so it is kept as it was
// written, slow as it is, but for refPropagated, which lets the fuzz compare
// the domains propagation leaves; change it only to mend a fault in both
// solvers.

// refUnboundedLo/Hi bound variables with no declared domain (pivot values).
const (
	refUnboundedLo = -(int64(1) << 40)
	refUnboundedHi = int64(1) << 40
)

// refSearchBudget caps the number of assignments the backtracking search may
// enumerate before giving up with Unknown.
const refSearchBudget = 200_000

// refPropagationRounds caps interval-propagation sweeps.
const refPropagationRounds = 16

// refCheck reports whether the conjunction of the given boolean terms is
// satisfiable.
func refCheck(constraints []sym.Term) Result {
	s, r := refPropagated(constraints)
	if r != 0 {
		return r
	}
	return s.search()
}

// refPropagated runs refCheck up to its search: it returns the state with
// the domains propagation left, or the verdict reached before the search.
func refPropagated(constraints []sym.Term) (*refState, Result) {
	s := &refState{domains: map[string]refIv{}, vars: map[string]*sym.Var{}}
	// Split conjunctions and fold.
	var atoms []sym.Term
	for _, c := range constraints {
		atoms = s.flatten(sym.Fold(c), atoms)
	}
	for _, a := range atoms {
		if cv, ok := sym.IsConst(a); ok {
			if b, bok := cv.AsBool(); bok {
				if !b {
					return nil, Unsat
				}
				continue
			}
			return nil, Unknown // non-bool constraint: ill-typed
		}
		s.atoms = append(s.atoms, a)
		for _, v := range sym.Vars(a, nil) {
			s.addVar(v)
		}
	}
	if len(s.atoms) == 0 {
		return nil, Sat
	}
	if r := s.stringReasoning(); r != Sat {
		return nil, r
	}
	if !s.propagate() {
		return nil, Unsat
	}
	return s, 0
}

// refIv is a closed integer interval.
type refIv struct{ lo, hi int64 }

func (i refIv) empty() bool { return i.lo > i.hi }

func (i refIv) size() int64 {
	if i.empty() {
		return 0
	}
	return i.hi - i.lo + 1
}

type refState struct {
	atoms   []sym.Term
	vars    map[string]*sym.Var
	domains map[string]refIv
	// strEq / strNe hold string (dis)equality atoms handled separately.
	strEq [][2]refStrOperand
	strNe [][2]refStrOperand
}

type refStrOperand struct {
	isConst bool
	c       string // const payload
	v       string // var name
}

func (s *refState) flatten(t sym.Term, out []sym.Term) []sym.Term {
	if b, ok := t.(sym.Bin); ok && b.Op == lang.OpAnd {
		return s.flatten(b.R, s.flatten(b.L, out))
	}
	return append(out, t)
}

func (s *refState) addVar(v *sym.Var) {
	if _, ok := s.vars[v.Name]; ok {
		return
	}
	s.vars[v.Name] = v
	switch {
	case v.Kind == value.KindBool:
		s.domains[v.Name] = refIv{0, 1}
	case v.Kind == value.KindInt && v.Origin == sym.OriginInput:
		s.domains[v.Name] = refIv{v.Lo, v.Hi}
	case v.Kind == value.KindString:
		// string variables are handled by stringReasoning; give them a
		// placeholder unit domain so the integer machinery ignores them.
		s.domains[v.Name] = refIv{0, 0}
	default:
		s.domains[v.Name] = refIv{refUnboundedLo, refUnboundedHi}
	}
}

// stringReasoning handles (dis)equality atoms whose operands are string
// constants or string variables, using union-find over equalities. It
// removes those atoms from s.atoms. Returns Unsat on contradiction, Unknown
// if a string appears in an unsupported position, Sat otherwise.
func (s *refState) stringReasoning() Result {
	var rest []sym.Term
	for _, a := range s.atoms {
		b, ok := a.(sym.Bin)
		if !ok || (b.Op != lang.OpEq && b.Op != lang.OpNe) {
			rest = append(rest, a)
			continue
		}
		lo, lok := refStrOp(b.L)
		ro, rok := refStrOp(b.R)
		if !lok || !rok {
			// Not a string atom; keep for integer machinery.
			rest = append(rest, a)
			continue
		}
		if b.Op == lang.OpEq {
			s.strEq = append(s.strEq, [2]refStrOperand{lo, ro})
		} else {
			s.strNe = append(s.strNe, [2]refStrOperand{lo, ro})
		}
	}
	s.atoms = rest
	if len(s.strEq) == 0 && len(s.strNe) == 0 {
		return Sat
	}
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	id := func(o refStrOperand) string {
		if o.isConst {
			return "c:" + o.c
		}
		return "v:" + o.v
	}
	for _, eq := range s.strEq {
		union(id(eq[0]), id(eq[1]))
	}
	// Two distinct constants in one class -> contradiction.
	classConst := map[string]string{}
	for _, eq := range s.strEq {
		for _, o := range eq {
			if o.isConst {
				root := find(id(o))
				if prev, ok := classConst[root]; ok && prev != o.c {
					return Unsat
				}
				classConst[root] = o.c
			}
		}
	}
	for _, ne := range s.strNe {
		if find(id(ne[0])) == find(id(ne[1])) {
			return Unsat
		}
	}
	return Sat
}

func refStrOp(t sym.Term) (refStrOperand, bool) {
	switch x := t.(type) {
	case sym.Const:
		if sv, ok := x.V.AsString(); ok {
			return refStrOperand{isConst: true, c: sv}, true
		}
	case *sym.Var:
		if x.Kind == value.KindString {
			return refStrOperand{v: x.Name}, true
		}
	}
	return refStrOperand{}, false
}

// refLinear form: sum(coeffs[i].c*coeffs[i].name) + k. The coefficients keep
// the order in which their variables first occur in the term: propagation
// visits them in that order, and under its round cap the domains it leaves
// depend on the order.
type refLinear struct {
	coeffs []refCoeff
	k      int64
}

type refCoeff struct {
	name string
	c    int64
}

// add adds c*name to l.
func (l *refLinear) add(name string, c int64) {
	for i := range l.coeffs {
		if l.coeffs[i].name == name {
			l.coeffs[i].c += c
			return
		}
	}
	l.coeffs = append(l.coeffs, refCoeff{name, c})
}

// refCombine returns l + sign*r.
func refCombine(l, r refLinear, sign int64) refLinear {
	out := refLinear{k: l.k + sign*r.k}
	for _, t := range l.coeffs {
		out.add(t.name, t.c)
	}
	for _, t := range r.coeffs {
		out.add(t.name, sign*t.c)
	}
	return out
}

// refScale returns k*l.
func refScale(l refLinear, k int64) refLinear {
	out := refLinear{k: l.k * k}
	for _, t := range l.coeffs {
		out.coeffs = append(out.coeffs, refCoeff{t.name, k * t.c})
	}
	return out
}

// refLinearize converts an integer term to refLinear form; ok is false for
// non-refLinear terms (Mul of two variables, Div, Mod, field projections, ...).
func refLinearize(t sym.Term) (refLinear, bool) {
	switch x := t.(type) {
	case sym.Const:
		i, ok := x.V.AsInt()
		if !ok {
			return refLinear{}, false
		}
		return refLinear{k: i}, true
	case *sym.Var:
		return refLinear{coeffs: []refCoeff{{x.Name, 1}}}, true
	case sym.Bin:
		switch x.Op {
		case lang.OpAdd, lang.OpSub:
			l, lok := refLinearize(x.L)
			r, rok := refLinearize(x.R)
			if !lok || !rok {
				return refLinear{}, false
			}
			sign := int64(1)
			if x.Op == lang.OpSub {
				sign = -1
			}
			return refCombine(l, r, sign), true
		case lang.OpMul:
			l, lok := refLinearize(x.L)
			r, rok := refLinearize(x.R)
			if !lok || !rok {
				return refLinear{}, false
			}
			// constant * refLinear only
			if len(l.coeffs) == 0 {
				return refScale(r, l.k), true
			}
			if len(r.coeffs) == 0 {
				return refScale(l, r.k), true
			}
			return refLinear{}, false
		default:
			return refLinear{}, false
		}
	default:
		return refLinear{}, false
	}
}

// refAtomLinear extracts "lin OP 0" from a comparison atom, normalizing
// L OP R to (L-R) OP 0. ok is false when either side is non-refLinear.
func refAtomLinear(a sym.Term) (refLinear, lang.Op, bool) {
	b, ok := a.(sym.Bin)
	if !ok || !b.Op.IsComparison() {
		return refLinear{}, 0, false
	}
	l, lok := refLinearize(b.L)
	r, rok := refLinearize(b.R)
	if !lok || !rok {
		return refLinear{}, 0, false
	}
	diff := refCombine(l, r, -1)
	kept := diff.coeffs[:0]
	for _, t := range diff.coeffs {
		if t.c != 0 {
			kept = append(kept, t)
		}
	}
	diff.coeffs = kept
	return diff, b.Op, true
}

// propagate tightens variable domains using the refLinear atoms. It returns
// false when some domain becomes empty (Unsat).
func (s *refState) propagate() bool {
	type linAtom struct {
		lin refLinear
		op  lang.Op
	}
	var lins []linAtom
	for _, a := range s.atoms {
		if lin, op, ok := refAtomLinear(a); ok && op != lang.OpNe {
			lins = append(lins, linAtom{lin, op})
		}
	}
	for round := 0; round < refPropagationRounds; round++ {
		changed := false
		for _, la := range lins {
			// For each variable x with coefficient c: c*x + rest OP 0.
			// Bound c*x by the extreme values of rest over current domains.
			for _, t := range la.lin.coeffs {
				name, c := t.name, t.c
				restLo, restHi, ok := s.restBounds(la.lin, name)
				if !ok {
					continue
				}
				d := s.domains[name]
				nd := refTighten(d, c, restLo, restHi, la.op)
				if nd.empty() {
					return false
				}
				if nd != d {
					s.domains[name] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return true
}

// restBounds computes min/max of (lin - refCoeff(name)*name) over current
// domains.
func (s *refState) restBounds(l refLinear, except string) (int64, int64, bool) {
	lo, hi := l.k, l.k
	for _, t := range l.coeffs {
		name, c := t.name, t.c
		if name == except {
			continue
		}
		d, ok := s.domains[name]
		if !ok {
			return 0, 0, false
		}
		a, b := c*d.lo, c*d.hi
		if a > b {
			a, b = b, a
		}
		lo += a
		hi += b
	}
	return lo, hi, true
}

// refTighten returns the subset of d for x such that c*x + rest OP 0 can hold
// for some rest in [restLo, restHi].
func refTighten(d refIv, c, restLo, restHi int64, op lang.Op) refIv {
	if c == 0 {
		return d
	}
	// c*x OP -rest for some rest in range  =>  c*x OP' bound
	switch op {
	case lang.OpEq:
		// c*x in [-restHi, -restLo]
		return refIntersectScaled(d, c, -restHi, -restLo)
	case lang.OpLt:
		// c*x < -rest for some rest => c*x <= -restLo - 1
		return refIntersectScaled(d, c, refMinInt64, -restLo-1)
	case lang.OpLe:
		return refIntersectScaled(d, c, refMinInt64, -restLo)
	case lang.OpGt:
		return refIntersectScaled(d, c, -restHi+1, refMaxInt64)
	case lang.OpGe:
		return refIntersectScaled(d, c, -restHi, refMaxInt64)
	default:
		return d
	}
}

const (
	refMinInt64 = -(int64(1) << 62)
	refMaxInt64 = int64(1) << 62
)

// refIntersectScaled intersects domain d of x with {x : c*x in [lo, hi]}.
func refIntersectScaled(d refIv, c, lo, hi int64) refIv {
	if c < 0 {
		c, lo, hi = -c, -hi, -lo
	}
	// x in [ceil(lo/c), floor(hi/c)]
	xlo := refDivCeil(lo, c)
	xhi := refDivFloor(hi, c)
	if xlo > d.lo {
		d.lo = xlo
	}
	if xhi < d.hi {
		d.hi = xhi
	}
	return d
}

func refDivCeil(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func refDivFloor(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) != (b > 0) {
		q--
	}
	return q
}

// search enumerates assignments over the (propagated) domains, evaluating
// all atoms. It returns Sat on the first satisfying assignment, Unsat when
// the full space is exhausted, Unknown when the space exceeds the budget.
func (s *refState) search() Result {
	// Deterministic variable order: smallest domain first, then name.
	names := make([]string, 0, len(s.domains))
	for n := range s.domains {
		if s.vars[n].Kind == value.KindString {
			continue // strings were fully handled by stringReasoning
		}
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		di, dj := s.domains[names[i]].size(), s.domains[names[j]].size()
		if di != dj {
			return di < dj
		}
		return names[i] < names[j]
	})
	budget := int64(refSearchBudget)
	space := int64(1)
	for _, n := range names {
		sz := s.domains[n].size()
		if sz == 0 {
			return Unsat
		}
		space *= sz
		if space > budget || space < 0 {
			return Unknown
		}
	}
	assign := map[string]value.Value{}
	lookup := func(v *sym.Var) (value.Value, bool) {
		val, ok := assign[v.Name]
		return val, ok
	}
	// evalAtoms evaluates all atoms whose variables are fully assigned;
	// returns false if any evaluates to false (prune), true otherwise.
	evalReady := func() bool {
		for _, a := range s.atoms {
			ready := true
			for _, v := range sym.Vars(a, nil) {
				if v.Kind == value.KindString {
					// Non-(dis)equality string atoms are out of scope;
					// treat the atom as satisfiable rather than guessing.
					ready = false
					break
				}
				if _, ok := assign[v.Name]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			got, err := sym.Eval(a, lookup)
			if err != nil {
				return false // treat evaluation failure as falsifying
			}
			if b, ok := got.AsBool(); !ok || !b {
				return false
			}
		}
		return true
	}
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if i == len(names) {
			return evalReady()
		}
		n := names[i]
		d := s.domains[n]
		for x := d.lo; x <= d.hi; x++ {
			if s.vars[n].Kind == value.KindBool {
				assign[n] = value.Bool(x == 1)
			} else {
				assign[n] = value.Int(x)
			}
			if evalReady() && dfs(i+1) {
				return true
			}
		}
		delete(assign, n)
		return false
	}
	if dfs(0) {
		return Sat
	}
	return Unsat
}
