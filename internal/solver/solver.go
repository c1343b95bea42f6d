// Package solver decides satisfiability of path constraints — conjunctions
// of boolean symbolic terms — over transaction inputs with declared bounded
// domains. It plays the role of the constraint solver behind the paper's SE
// engine (§II): the symbolic executor discards symbolic states whose path
// constraint is unsatisfiable.
//
// The decision procedure is exact for the constraint class our IR produces:
// comparisons between linear integer expressions over bounded input
// variables, boolean combinations thereof, and (dis)equalities over string
// variables. Anything beyond that degrades to Unknown, which callers treat
// as satisfiable (the path is explored — sound for reachability, possibly
// wasteful, never wrong).
//
// A verdict is a function of the constraints alone. Interval propagation is
// capped at propagationRounds sweeps, so the domains it leaves depend on the
// order of its steps: it visits the atoms in path order and each atom's
// variables in the order they first occur in it, and the search tries the
// smallest domain first, ties broken by name. Every replica analyses its
// catalog at boot, and a verdict that moved with map iteration order would
// prune a branch on one replica and explore it on another.
package solver

import (
	"cmp"
	"slices"
	"strings"

	"prognosticator/internal/lang"
	"prognosticator/internal/sym"
	"prognosticator/internal/value"
)

// Result is a three-valued satisfiability verdict.
type Result int

// Verdicts. Unknown means the solver could not decide; callers must treat it
// as possibly satisfiable.
const (
	Unsat Result = iota + 1
	Sat
	Unknown
)

// String returns the verdict name.
func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// unboundedLo/Hi bound variables with no declared domain (pivot values).
const (
	unboundedLo = -(int64(1) << 40)
	unboundedHi = int64(1) << 40
)

// searchBudget caps the number of assignments the backtracking search may
// enumerate before giving up with Unknown.
const searchBudget = 200_000

// propagationRounds caps interval-propagation sweeps.
const propagationRounds = 16

// Check reports whether the conjunction of the given boolean terms is
// satisfiable.
func Check(constraints []sym.Term) Result {
	var empty *Path
	return empty.Check(constraints...)
}

// Path is a path constraint prepared for Check: a conjunction that only
// grows. And folds a conjunct, splits it at its top-level ands, and gives
// each atom its variables and linear form once; a Check prepares only its
// extra conjuncts. A Path never changes: And returns a new Path that shares
// its receiver, so the two children of a fork extend one parent apart. The
// nil *Path is the empty conjunction.
type Path struct {
	parent *Path
	atoms  []atom     // the non-constant atoms this conjunct adds
	vars   []*sym.Var // the variables first met in this conjunct
	// nAtoms and nVars count the atoms and variables of the whole path:
	// a variable's index is its position in the path's variable table.
	nAtoms, nVars int
	// verdict is that of the path's first constant atom that is not true:
	// Unsat for false, Unknown for a non-boolean; 0 when there is none.
	verdict Result
}

// atom is one prepared conjunct atom.
type atom struct {
	t sym.Term
	// own lists t's variables, distinct by name, in order of first
	// occurrence (sym.Vars); idx holds their indices in the path.
	own []*sym.Var
	idx []int32
	// str marks a string (dis)equality, decided by union-find over its
	// two operands; ne tells != from ==.
	str     bool
	ne      bool
	strOps  [2]strOperand
	linear  bool // lin OP 0 holds a linear form for propagation
	lin     []coeff
	k       int64
	op      lang.Op
	canEval bool    // no variable is a string: the search can evaluate it
	prog    program // t compiled, when canEval
}

type strOperand struct {
	isConst bool
	c       string // const payload
	v       int32  // variable index
}

// coeff is c times variable v of a linear form.
type coeff struct {
	v int32
	c int64
}

// And returns the path constraint p ∧ t.
func (p *Path) And(t sym.Term) *Path {
	return p.and(flatten(sym.Fold(t), nil))
}

// Check reports whether p ∧ extra is satisfiable.
func (p *Path) Check(extra ...sym.Term) Result {
	if r := p.firstVerdict(); r != 0 {
		return r
	}
	var terms []sym.Term
	for _, t := range extra {
		terms = flatten(sym.Fold(t), terms)
	}
	// The first constant atom that is not true decides before any variable
	// is looked at: two key tuples with distinct constant parts cost their
	// folds and nothing more.
	for _, t := range terms {
		if r := constVerdict(t); r != 0 {
			return r
		}
	}
	if len(terms) > 0 {
		p = p.and(terms)
	}
	return p.solve()
}

func (p *Path) firstVerdict() Result {
	if p == nil {
		return 0
	}
	return p.verdict
}

// constVerdict is the verdict a constant atom forces: 0 when t is not a
// constant or is true.
func constVerdict(t sym.Term) Result {
	cv, ok := sym.IsConst(t)
	if !ok {
		return 0
	}
	b, ok := cv.AsBool()
	switch {
	case !ok:
		return Unknown // non-bool constraint: ill-typed
	case !b:
		return Unsat
	}
	return 0
}

func flatten(t sym.Term, out []sym.Term) []sym.Term {
	if b, ok := t.(sym.Bin); ok && b.Op == lang.OpAnd {
		return flatten(b.R, flatten(b.L, out))
	}
	return append(out, t)
}

// and appends the folded, flattened terms as one conjunct.
func (p *Path) and(terms []sym.Term) *Path {
	n := &Path{parent: p}
	if p != nil {
		n.nAtoms, n.nVars, n.verdict = p.nAtoms, p.nVars, p.verdict
	}
	for _, t := range terms {
		if n.verdict != 0 {
			break // the path is decided; nothing after matters
		}
		if _, ok := sym.IsConst(t); ok {
			n.verdict = constVerdict(t)
			continue
		}
		n.atoms = append(n.atoms, n.prepare(t))
	}
	n.nAtoms += len(n.atoms)
	return n
}

// prepare interns t's variables and classifies t once.
func (n *Path) prepare(t sym.Term) atom {
	a := atom{t: t, own: sym.Vars(t, nil), canEval: true}
	a.idx = make([]int32, len(a.own))
	for i, v := range a.own {
		var first *sym.Var
		a.idx[i], first = n.intern(v)
		if v.Kind == value.KindString || first.Kind == value.KindString {
			a.canEval = false
		}
	}
	if a.canEval {
		a.compile(t)
	}
	b, ok := t.(sym.Bin)
	if !ok {
		return a
	}
	if b.Op == lang.OpEq || b.Op == lang.OpNe {
		lo, lok := a.strOp(b.L)
		ro, rok := a.strOp(b.R)
		if lok && rok {
			a.str, a.ne, a.strOps = true, b.Op == lang.OpNe, [2]strOperand{lo, ro}
			return a
		}
	}
	if b.Op.IsComparison() && b.Op != lang.OpNe {
		a.lin, a.k, a.linear = a.atomLinear(b)
		a.op = b.Op
	}
	return a
}

// intern returns x's index in the path's variable table, adding x when no
// variable of its name is there yet, and the variable that first took the
// name: it fixes the name's kind and domain.
func (n *Path) intern(x *sym.Var) (int32, *sym.Var) {
	for q := n; q != nil; q = q.parent {
		base := q.nVars - len(q.vars)
		for i, v := range q.vars {
			if v == x || v.Name == x.Name {
				return int32(base + i), v
			}
		}
	}
	n.vars = append(n.vars, x)
	n.nVars++
	return int32(n.nVars - 1), x
}

// index returns the path index of x, one of a's variables.
func (a *atom) index(x *sym.Var) int32 {
	for i, v := range a.own {
		if v == x || v.Name == x.Name {
			return a.idx[i]
		}
	}
	panic("solver: variable " + x.Name + " not in its atom")
}

func (a *atom) strOp(t sym.Term) (strOperand, bool) {
	switch x := t.(type) {
	case sym.Const:
		if sv, ok := x.V.AsString(); ok {
			return strOperand{isConst: true, c: sv}, true
		}
	case *sym.Var:
		if x.Kind == value.KindString {
			return strOperand{v: a.index(x)}, true
		}
	}
	return strOperand{}, false
}

// linear is sum(coeffs[i].c * var coeffs[i].v) + k, coefficients in the
// order their variables first occur.
type linear struct {
	coeffs []coeff
	k      int64
}

// add adds c times variable v to l.
func (l *linear) add(v int32, c int64) {
	for i := range l.coeffs {
		if l.coeffs[i].v == v {
			l.coeffs[i].c += c
			return
		}
	}
	l.coeffs = append(l.coeffs, coeff{v, c})
}

// combine returns l + sign*r.
func combine(l, r linear, sign int64) linear {
	out := linear{coeffs: make([]coeff, 0, len(l.coeffs)+len(r.coeffs)), k: l.k + sign*r.k}
	for _, t := range l.coeffs {
		out.add(t.v, t.c)
	}
	for _, t := range r.coeffs {
		out.add(t.v, sign*t.c)
	}
	return out
}

// scale returns k*l.
func scale(l linear, k int64) linear {
	out := linear{coeffs: make([]coeff, len(l.coeffs)), k: l.k * k}
	for i, t := range l.coeffs {
		out.coeffs[i] = coeff{t.v, k * t.c}
	}
	return out
}

// linearize converts an integer term to linear form; ok is false for
// non-linear terms (Mul of two variables, Div, Mod, field projections, ...).
func (a *atom) linearize(t sym.Term) (linear, bool) {
	switch x := t.(type) {
	case sym.Const:
		i, ok := x.V.AsInt()
		if !ok {
			return linear{}, false
		}
		return linear{k: i}, true
	case *sym.Var:
		return linear{coeffs: []coeff{{a.index(x), 1}}}, true
	case sym.Bin:
		if x.Op != lang.OpAdd && x.Op != lang.OpSub && x.Op != lang.OpMul {
			return linear{}, false
		}
		l, lok := a.linearize(x.L)
		r, rok := a.linearize(x.R)
		if !lok || !rok {
			return linear{}, false
		}
		switch {
		case x.Op == lang.OpAdd:
			return combine(l, r, 1), true
		case x.Op == lang.OpSub:
			return combine(l, r, -1), true
		case len(l.coeffs) == 0: // constant * linear only
			return scale(r, l.k), true
		case len(r.coeffs) == 0:
			return scale(l, r.k), true
		}
		return linear{}, false
	default:
		return linear{}, false
	}
}

// atomLinear extracts "lin + k OP 0" from a comparison, normalizing L OP R
// to (L-R) OP 0 and dropping zero coefficients. ok is false when either
// side is non-linear.
func (a *atom) atomLinear(b sym.Bin) ([]coeff, int64, bool) {
	l, lok := a.linearize(b.L)
	r, rok := a.linearize(b.R)
	if !lok || !rok {
		return nil, 0, false
	}
	diff := combine(l, r, -1)
	kept := diff.coeffs[:0]
	for _, t := range diff.coeffs {
		if t.c != 0 {
			kept = append(kept, t)
		}
	}
	return kept, diff.k, true
}

// iv is a closed integer interval.
type iv struct{ lo, hi int64 }

func (i iv) empty() bool { return i.lo > i.hi }

func (i iv) size() int64 {
	if i.empty() {
		return 0
	}
	return i.hi - i.lo + 1
}

// domainOf is the domain a variable starts a query with.
func domainOf(v *sym.Var) iv {
	switch {
	case v.Kind == value.KindBool:
		return iv{0, 1}
	case v.Kind == value.KindInt && v.Origin == sym.OriginInput:
		return iv{v.Lo, v.Hi}
	case v.Kind == value.KindString:
		// string variables are handled by stringReasoning; give them a
		// placeholder unit domain so the integer machinery ignores them.
		return iv{0, 0}
	default:
		return iv{unboundedLo, unboundedHi}
	}
}

// query is one Check's working state: the path's atoms in order and its
// variables' domains, indexed as the path indexes them.
type query struct {
	atoms   []*atom
	vars    []*sym.Var
	domains []iv
}

// solve decides p.
func (p *Path) solve() Result {
	if r := p.firstVerdict(); r != 0 {
		return r
	}
	if p == nil || p.nAtoms == 0 {
		return Sat
	}
	q := p.query()
	if r := q.stringReasoning(); r != Sat {
		return r
	}
	if !q.propagate() {
		return Unsat
	}
	return q.search()
}

// query gathers p's atoms, root first, and its variables' starting domains.
func (p *Path) query() *query {
	q := &query{
		atoms:   make([]*atom, p.nAtoms),
		vars:    make([]*sym.Var, p.nVars),
		domains: make([]iv, p.nVars),
	}
	for n := p; n != nil; n = n.parent {
		for i := range n.atoms {
			q.atoms[n.nAtoms-len(n.atoms)+i] = &n.atoms[i]
		}
		base := n.nVars - len(n.vars)
		for i, v := range n.vars {
			q.vars[base+i] = v
			q.domains[base+i] = domainOf(v)
		}
	}
	return q
}

// stringReasoning decides the string (dis)equality atoms with union-find
// over their operands: Unsat when an equivalence class holds two distinct
// constants or the two sides of a disequality, Sat otherwise.
func (q *query) stringReasoning() Result {
	var ops []strOperand // distinct operands; a class is an index into it
	var parent []int
	id := func(o strOperand) int {
		for i, p := range ops {
			if p.isConst == o.isConst && (o.isConst && p.c == o.c || !o.isConst && p.v == o.v) {
				return i
			}
		}
		ops = append(ops, o)
		parent = append(parent, len(parent))
		return len(ops) - 1
	}
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	eqs := false
	for _, a := range q.atoms {
		if a.str && !a.ne {
			eqs = true
			l, r := id(a.strOps[0]), id(a.strOps[1])
			parent[find(l)] = find(r)
		}
	}
	// Two distinct constants in one class -> contradiction.
	if eqs {
		classConst := make([]int, len(ops))
		for i := range classConst {
			classConst[i] = -1
		}
		for i, o := range ops {
			if !o.isConst {
				continue
			}
			root := find(i)
			if classConst[root] >= 0 && classConst[root] != i {
				return Unsat
			}
			classConst[root] = i
		}
	}
	for _, a := range q.atoms {
		if a.str && a.ne && find(id(a.strOps[0])) == find(id(a.strOps[1])) {
			return Unsat
		}
	}
	return Sat
}

// propagate tightens variable domains using the linear atoms. It returns
// false when some domain becomes empty (Unsat).
func (q *query) propagate() bool {
	for round := 0; round < propagationRounds; round++ {
		changed := false
		for _, a := range q.atoms {
			if !a.linear {
				continue
			}
			// For each variable x with coefficient c: c*x + rest OP 0.
			// Bound c*x by the extreme values of rest over current domains.
			for j, t := range a.lin {
				restLo, restHi := q.restBounds(a, j)
				d := q.domains[t.v]
				nd := tighten(d, t.c, restLo, restHi, a.op)
				if nd.empty() {
					return false
				}
				if nd != d {
					q.domains[t.v] = nd
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

// restBounds computes min/max of a's linear form without its j-th
// coefficient over current domains.
func (q *query) restBounds(a *atom, except int) (int64, int64) {
	lo, hi := a.k, a.k
	for j, t := range a.lin {
		if j == except {
			continue
		}
		d := q.domains[t.v]
		x, y := t.c*d.lo, t.c*d.hi
		if x > y {
			x, y = y, x
		}
		lo += x
		hi += y
	}
	return lo, hi
}

// tighten returns the subset of d for x such that c*x + rest OP 0 can hold
// for some rest in [restLo, restHi].
func tighten(d iv, c, restLo, restHi int64, op lang.Op) iv {
	if c == 0 {
		return d
	}
	// c*x OP -rest for some rest in range  =>  c*x OP' bound
	switch op {
	case lang.OpEq:
		// c*x in [-restHi, -restLo]
		return intersectScaled(d, c, -restHi, -restLo)
	case lang.OpLt:
		// c*x < -rest for some rest => c*x <= -restLo - 1
		return intersectScaled(d, c, minInt64, -restLo-1)
	case lang.OpLe:
		return intersectScaled(d, c, minInt64, -restLo)
	case lang.OpGt:
		return intersectScaled(d, c, -restHi+1, maxInt64)
	case lang.OpGe:
		return intersectScaled(d, c, -restHi, maxInt64)
	default:
		return d
	}
}

const (
	minInt64 = -(int64(1) << 62)
	maxInt64 = int64(1) << 62
)

// intersectScaled intersects domain d of x with {x : c*x in [lo, hi]}.
func intersectScaled(d iv, c, lo, hi int64) iv {
	if c < 0 {
		c, lo, hi = -c, -hi, -lo
	}
	// x in [ceil(lo/c), floor(hi/c)]
	xlo := divCeil(lo, c)
	xhi := divFloor(hi, c)
	if xlo > d.lo {
		d.lo = xlo
	}
	if xhi < d.hi {
		d.hi = xhi
	}
	return d
}

func divCeil(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func divFloor(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) != (b > 0) {
		q--
	}
	return q
}

// search enumerates assignments over the (propagated) domains of the
// non-string variables, smallest domain first and ties by name, and
// evaluates each atom as soon as its variables are assigned. It returns Sat
// on the first satisfying assignment, Unsat when the full space is
// exhausted, Unknown when the space exceeds the budget.
func (q *query) search() Result {
	order := make([]int32, 0, len(q.vars))
	for i, v := range q.vars {
		if v.Kind != value.KindString { // strings were fully handled by stringReasoning
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(q.domains[a].size(), q.domains[b].size()); c != 0 {
			return c
		}
		return strings.Compare(q.vars[a].Name, q.vars[b].Name)
	})
	space := int64(1)
	for _, v := range order {
		sz := q.domains[v].size()
		if sz == 0 {
			return Unsat
		}
		space *= sz
		if space > searchBudget || space < 0 {
			return Unknown
		}
	}
	// Each evaluable atom is checked at the depth that assigns the last of
	// its variables; one without variables is checked before the search.
	pos := make([]int, len(q.vars))
	for depth, v := range order {
		pos[v] = depth
	}
	s := &searcher{q: q, order: order, vals: make([]value.Value, len(q.vars)), at: make([][]*atom, len(order))}
	for _, a := range q.atoms {
		if a.str || !a.canEval {
			continue
		}
		if len(a.idx) == 0 {
			if !s.holds(a) {
				return Unsat
			}
			continue
		}
		depth := 0
		for _, v := range a.idx {
			if pos[v] > depth {
				depth = pos[v]
			}
		}
		s.at[depth] = append(s.at[depth], a)
	}
	if s.dfs(0) {
		return Sat
	}
	return Unsat
}

// program is an atom compiled for the search: postfix code over a value
// stack, its variables read by path index. It evaluates as sym.Eval does.
type program struct {
	code   []instr
	consts []value.Value
}

type instr struct {
	kind instrKind
	op   lang.Op // opBin
	arg  int32   // opVar: the variable's index; opConst: the constant's
}

type instrKind uint8

const (
	opConst instrKind = iota
	opVar
	opBin
	opNot
)

func (a *atom) compile(t sym.Term) {
	switch x := t.(type) {
	case sym.Const:
		a.prog.consts = append(a.prog.consts, x.V)
		a.prog.code = append(a.prog.code, instr{kind: opConst, arg: int32(len(a.prog.consts) - 1)})
	case *sym.Var:
		a.prog.code = append(a.prog.code, instr{kind: opVar, arg: a.index(x)})
	case sym.Bin:
		a.compile(x.L)
		a.compile(x.R)
		a.prog.code = append(a.prog.code, instr{kind: opBin, op: x.Op})
	case sym.Not:
		a.compile(x.T)
		a.prog.code = append(a.prog.code, instr{kind: opNot})
	default:
		panic("solver: unknown term")
	}
}

type searcher struct {
	q     *query
	order []int32
	vals  []value.Value // the assignment, by variable index
	at    [][]*atom     // the atoms each depth completes
	stack []value.Value
}

// holds evaluates an atom under the current assignment; evaluation failure
// falsifies.
func (s *searcher) holds(a *atom) bool {
	st := s.stack[:0]
	for _, in := range a.prog.code {
		switch in.kind {
		case opConst:
			st = append(st, a.prog.consts[in.arg])
		case opVar:
			st = append(st, s.vals[in.arg])
		case opBin:
			v, err := lang.EvalBin(in.op, st[len(st)-2], st[len(st)-1])
			if err != nil {
				return false
			}
			st = append(st[:len(st)-2], v)
		case opNot:
			b, ok := st[len(st)-1].AsBool()
			if !ok {
				return false
			}
			st[len(st)-1] = value.Bool(!b)
		}
	}
	s.stack = st
	b, ok := st[0].AsBool()
	return ok && b
}

func (s *searcher) dfs(depth int) bool {
	if depth == len(s.order) {
		return true
	}
	v := s.order[depth]
	d := s.q.domains[v]
	isBool := s.q.vars[v].Kind == value.KindBool
next:
	for x := d.lo; x <= d.hi; x++ {
		if isBool {
			s.vals[v] = value.Bool(x == 1)
		} else {
			s.vals[v] = value.Int(x)
		}
		for _, a := range s.at[depth] {
			if !s.holds(a) {
				continue next
			}
		}
		if s.dfs(depth + 1) {
			return true
		}
	}
	return false
}
