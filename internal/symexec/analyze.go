package symexec

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"time"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/solver"
	"prognosticator/internal/sym"
	"prognosticator/internal/taint"
	"prognosticator/internal/value"
)

// options configures one analysis run. Analyze and Measure fix them; the
// package's tests set them to compare the optimizations and budgets.
type options struct {
	// useTaint enables the irrelevant-variable (concolic) optimization.
	useTaint bool
	// prune enables merging of sibling subtrees that produce identical
	// RWS (the paper's depth-first pruning).
	prune bool
	// maxStates caps the number of symbolic states; 0 means DefaultMaxStates.
	maxStates int
	// fixedInputs pins selected parameters to concrete values (e.g. fixing
	// olCnt to reproduce the per-iteration rows of Table I).
	fixedInputs map[string]value.Value
	// truncateOnBudget stops forking (exploring only the true arm) once
	// the state budget is reached instead of failing. The resulting
	// profile is INCOMPLETE and must only be used for cost measurement
	// (Table I extrapolation), never for scheduling.
	truncateOnBudget bool
}

// Budgets. DefaultMaxLoopUnroll caps the iterations of any single loop;
// UnoptComparisonBudget caps Measure's unoptimized comparison run.
const (
	DefaultMaxStates      = 1 << 20
	DefaultMaxLoopUnroll  = 64
	UnoptComparisonBudget = 1 << 13
)

// ErrBudget is wrapped by analysis errors caused by exhausting the state
// budget.
var ErrBudget = fmt.Errorf("symexec: state budget exhausted")

// Analyze symbolically executes p with both of the paper's optimizations
// (taint and pruning) and returns its transaction profile. Stats holds the
// counts and the duration; the memory figures and the unoptimized columns
// are Measure's.
func Analyze(p *lang.Program) (*profile.Profile, error) {
	return analyze(p, options{useTaint: true, prune: true})
}

// Measure is Table I's analysis: Analyze with the parameters in fixed pinned
// to concrete values, plus the memory it allocated and a capped run without
// the optimizations for the unoptimized columns of Stats. The profile is the
// one Analyze derives under the same inputs.
func Measure(p *lang.Program, fixed map[string]value.Value) (*profile.Profile, error) {
	prof, mem, err := analyzeMeasured(p, options{useTaint: true, prune: true, fixedInputs: fixed})
	if err != nil {
		return nil, err
	}
	prof.Stats.MemoryBytes = mem
	// The comparison run's budget is capped: beyond UnoptComparisonBudget
	// states the unoptimized analysis is exactly the infeasible case the
	// paper reports by extrapolation (newOrder at 15 iterations would take
	// ~35 days under JPF), so the run is truncated and the caller
	// extrapolates from TotalStates. A failed run leaves the columns at zero.
	unopt, mem, err := analyzeMeasured(p, options{
		maxStates: UnoptComparisonBudget, truncateOnBudget: true, fixedInputs: fixed,
	})
	if err == nil {
		prof.Stats.MemoryBytesUnopt = mem
		prof.Stats.DurationUnopt = unopt.Stats.Duration
		prof.Stats.StatesUnopt = unopt.Stats.StatesExplored
		prof.Stats.UnoptTruncated = unopt.Stats.Truncated
	}
	return prof, nil
}

// analyzeMeasured runs analyze and reports the bytes it allocated.
func analyzeMeasured(p *lang.Program, opts options) (*profile.Profile, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prof, err := analyze(p, opts)
	runtime.ReadMemStats(&after)
	return prof, after.TotalAlloc - before.TotalAlloc, err
}

// analyze is one symbolic execution of p under opts.
func analyze(p *lang.Program, opts options) (*profile.Profile, error) {
	if opts.maxStates == 0 {
		opts.maxStates = DefaultMaxStates
	}
	start := time.Now()

	a := &analysis{prog: p, opts: opts}
	if opts.useTaint {
		a.taint = taint.Analyze(p)
	}
	st := &state{a: a, locals: map[string]symval{}}
	if err := a.bindParams(st); err != nil {
		return nil, err
	}
	root, err := st.execBlock(p.Body, leafKont)
	if err != nil {
		return nil, fmt.Errorf("symexec: %s: %w", p.Name, err)
	}
	if root == nil {
		root = &profile.Node{}
	}

	// Cross-check the per-access Direct marks against the static
	// key-determinism analysis: a pivot-keyed access in a table the static
	// analysis proves all-direct means one of the two analyses is wrong, and
	// trusting either would be unsound.
	if err := checkDirectMarks(p, root); err != nil {
		return nil, fmt.Errorf("symexec: %s: %w", p.Name, err)
	}

	prof := &profile.Profile{TxName: p.Name, Root: root}
	prof.Stats = profile.Stats{
		StatesExplored: 2*a.forks + 1,
		TotalStates:    pow2(a.depthMax),
		Depth:          a.depthForks,
		DepthMax:       a.depthMax,
		UniqueKeySets:  countUniqueKeySets(root),
		IndirectKeys:   countIndirectKeys(root),
		Duration:       time.Since(start),
		Truncated:      a.truncated,
	}
	return prof, nil
}

func pow2(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 2
	}
	return out
}

// analysis is the per-run shared context.
type analysis struct {
	prog  *lang.Program
	opts  options
	taint *taint.Result

	states     int // symbolic states created
	truncated  bool
	forks      int
	depthForks int // max symbolic forks on any path
	depthMax   int // max conditional evaluations on any path
	pruned     int // subtree merges performed
}

// bindParams initializes the symbolic store from the parameter declarations.
func (a *analysis) bindParams(st *state) error {
	for _, prm := range a.prog.Params {
		if fixed, ok := a.opts.fixedInputs[prm.Name]; ok {
			st.locals[prm.Name] = concreteSymval(fixed)
			continue
		}
		if a.opts.useTaint && !a.taint.Relevant(prm.Name) {
			st.locals[prm.Name] = concreteSymval(taint.SampleValue(prm))
			continue
		}
		switch prm.Kind {
		case value.KindInt, value.KindString, value.KindBool:
			st.locals[prm.Name] = termVal{t: sym.NewInput(prm.Name, prm.Kind, prm.Lo, prm.Hi)}
		case value.KindList:
			elems := make([]symval, prm.MaxLen)
			for i := range elems {
				ek, lo, hi := value.KindInt, int64(0), int64(0)
				if prm.Elem != nil {
					ek, lo, hi = prm.Elem.Kind, prm.Elem.Lo, prm.Elem.Hi
				}
				elems[i] = termVal{t: sym.NewListElem(prm.Name, i, ek, lo, hi)}
			}
			st.locals[prm.Name] = listVal{elems: elems}
		default:
			return fmt.Errorf("symexec: %s: unsupported parameter kind %s", a.prog.Name, prm.Kind)
		}
	}
	return nil
}

// state is one symbolic state: the symbolic store, the path constraint and
// the access segment collected since the last fork.
type state struct {
	a      *analysis
	locals map[string]symval
	// pc is the path constraint, prepared for the solver as it grows; the
	// children of a fork share their parent's.
	pc *solver.Path
	// writes is the symbolic write buffer for read-own-write resolution:
	// a GET whose key is syntactically identical to an earlier PUT's key
	// returns the symbolic value written, not a pivot (the store cannot
	// serve a transaction's uncommitted write). Non-identical same-table
	// writes that the solver cannot prove non-aliasing make the read
	// ambiguous; it conservatively falls back to a pivot, and the
	// engine's guard/fallback machinery covers the residual misprediction.
	writes []symWrite
	// nForks / nConds count symbolic forks and conditional evaluations on
	// the path leading to this state.
	nForks, nConds int
	seg            []profile.Access
}

type symWrite struct {
	table string
	key   []sym.Term
	val   symval
}

// lookupOwnWrite resolves a GET against the symbolic write buffer. It
// returns (value, true) on a definite hit; (nil, false) when the store
// must be consulted (no hit, or ambiguity).
func (s *state) lookupOwnWrite(table string, key []sym.Term) (symval, bool) {
	for i := len(s.writes) - 1; i >= 0; i-- {
		w := s.writes[i]
		if w.table != table || len(w.key) != len(key) {
			continue
		}
		equal := true
		for j := range key {
			if !sym.Equal(w.key[j], key[j]) {
				equal = false
				break
			}
		}
		if equal {
			return w.val, true
		}
		// Different expression: can it alias? If the solver proves the
		// keys differ under the current path constraint, keep scanning
		// older writes; otherwise the read is ambiguous.
		if s.provablyDistinct(w.key, key) {
			continue
		}
		return nil, false
	}
	return nil, false
}

// provablyDistinct reports whether two key tuples cannot be equal under the
// current path constraint. The solver answers a constant atom before it
// looks at a variable, so a part whose equality folds to false (two distinct
// constants, the common case) costs its fold and no solving.
func (s *state) provablyDistinct(a, b []sym.Term) bool {
	eqs := make([]sym.Term, len(a))
	for j := range a {
		eqs[j] = sym.Bin{Op: lang.OpEq, L: a[j], R: b[j]}
	}
	return s.pc.Check(eqs...) == solver.Unsat
}

// clone copies the state for a fork child.
func (s *state) clone() *state {
	locals := make(map[string]symval, len(s.locals))
	for k, v := range s.locals {
		locals[k] = v
	}
	writes := make([]symWrite, len(s.writes))
	copy(writes, s.writes)
	return &state{a: s.a, locals: locals, pc: s.pc, writes: writes, nForks: s.nForks, nConds: s.nConds}
}

// kont is the continuation of execution: invoked when the current block
// (and everything syntactically before it) has been executed.
type kont func(*state) (*profile.Node, error)

// leafKont terminates a path, producing a leaf node.
func leafKont(s *state) (*profile.Node, error) {
	if s.nForks > s.a.depthForks {
		s.a.depthForks = s.nForks
	}
	if s.nConds > s.a.depthMax {
		s.a.depthMax = s.nConds
	}
	return &profile.Node{Seg: s.seg}, nil
}

func (s *state) execBlock(stmts []lang.Stmt, k kont) (*profile.Node, error) {
	if len(stmts) == 0 {
		return k(s)
	}
	rest := stmts[1:]
	restK := func(s2 *state) (*profile.Node, error) { return s2.execBlock(rest, k) }
	switch st := stmts[0].(type) {
	case lang.Assign:
		v, err := s.eval(st.E)
		if err != nil {
			return nil, err
		}
		s.locals[st.Dst] = v
		return restK(s)
	case lang.SetField:
		cur, ok := s.locals[st.Dst]
		if !ok {
			return nil, fmt.Errorf("SetField on undefined local %q", st.Dst)
		}
		fv, err := s.eval(st.E)
		if err != nil {
			return nil, err
		}
		nv, err := setField(cur, st.Field, fv)
		if err != nil {
			return nil, err
		}
		s.locals[st.Dst] = nv
		return restK(s)
	case lang.Get:
		key, err := s.keyTerms(st.Key)
		if err != nil {
			return nil, err
		}
		s.seg = append(s.seg, profile.Access{Table: st.Table, Key: key, Direct: keyDirect(key)})
		if own, ok := s.lookupOwnWrite(st.Table, key); ok {
			// Read-own-write: the value is the transaction's earlier
			// symbolic write, not a pivot.
			s.locals[st.Dst] = own
			return restK(s)
		}
		dstConcrete := s.a.opts.useTaint && !s.a.taint.Relevant(st.Dst)
		s.locals[st.Dst] = &pivotRecVal{table: st.Table, key: key, concrete: dstConcrete}
		return restK(s)
	case lang.Put:
		key, err := s.keyTerms(st.Key)
		if err != nil {
			return nil, err
		}
		// The stored value is evaluated both to surface type errors and to
		// serve later read-own-write resolutions.
		val, err := s.eval(st.Val)
		if err != nil {
			return nil, err
		}
		s.seg = append(s.seg, profile.Access{Table: st.Table, Key: key, Write: true, Direct: keyDirect(key)})
		s.writes = append(s.writes, symWrite{table: st.Table, key: key, val: val})
		return restK(s)
	case lang.Del:
		key, err := s.keyTerms(st.Key)
		if err != nil {
			return nil, err
		}
		s.seg = append(s.seg, profile.Access{Table: st.Table, Key: key, Write: true, Direct: keyDirect(key)})
		// A deleted item reads back as an empty record (missing fields are
		// integer zero), matching the interpreter.
		s.writes = append(s.writes, symWrite{table: st.Table, key: key, val: recVal{}})
		return restK(s)
	case lang.Emit:
		if _, err := s.eval(st.E); err != nil {
			return nil, err
		}
		return restK(s)
	case lang.If:
		condV, err := s.eval(st.Cond)
		if err != nil {
			return nil, err
		}
		cond, err := scalarTerm(condV)
		if err != nil {
			return nil, err
		}
		// RWS-irrelevant branch: when neither arm performs a store
		// operation or assigns a relevant variable, the branch cannot
		// affect the profile, so a symbolic condition need not fork —
		// either arm yields the same RWS for the rest of the execution.
		// This is the branch-level counterpart of the paper's irrelevant-
		// variable concolic rule and is what keeps e.g. TPC-C newOrder's
		// remote-warehouse conditional from exploding the analysis.
		if _, isConst := sym.IsConst(cond); !isConst && s.a.opts.useTaint &&
			!s.a.taint.BlockTouchesKeys(st.Then) && !s.a.taint.BlockTouchesKeys(st.Else) {
			s.nConds++
			return s.execBlock(st.Then, restK)
		}
		return s.branch(cond,
			func(t *state) (*profile.Node, error) { return t.execBlock(st.Then, restK) },
			func(f *state) (*profile.Node, error) { return f.execBlock(st.Else, restK) },
		)
	case lang.For:
		fromV, err := s.eval(st.From)
		if err != nil {
			return nil, err
		}
		fromT, err := scalarTerm(fromV)
		if err != nil {
			return nil, err
		}
		fromC, ok := sym.IsConst(fromT)
		if !ok {
			return nil, fmt.Errorf("loop %q: symbolic lower bound unsupported", st.Var)
		}
		from, ok := fromC.AsInt()
		if !ok {
			return nil, fmt.Errorf("loop %q: non-integer lower bound", st.Var)
		}
		toV, err := s.eval(st.To)
		if err != nil {
			return nil, err
		}
		toT, err := scalarTerm(toV)
		if err != nil {
			return nil, err
		}
		return s.execLoop(st, from, from, toT, restK)
	default:
		return nil, fmt.Errorf("unknown statement %T", stmts[0])
	}
}

// execLoop executes one iteration test of a For statement with concrete
// induction value i (bounds are evaluated once at loop entry).
func (s *state) execLoop(st lang.For, from, i int64, to sym.Term, k kont) (*profile.Node, error) {
	if i-from > DefaultMaxLoopUnroll {
		return nil, fmt.Errorf("loop %q: exceeded unroll bound %d", st.Var, DefaultMaxLoopUnroll)
	}
	cond := sym.Fold(sym.Bin{Op: lang.OpLt, L: sym.Const{V: value.Int(i)}, R: to})
	iterate := func(t *state) (*profile.Node, error) {
		t.locals[st.Var] = termVal{t: sym.Const{V: value.Int(i)}}
		return t.execBlock(st.Body, func(s2 *state) (*profile.Node, error) {
			return s2.execLoop(st, from, i+1, to, k)
		})
	}
	return s.branch(cond, iterate, k)
}

// branch handles a conditional: concrete conditions follow one arm; symbolic
// conditions fork (subject to path-constraint satisfiability) and build a
// tree node, merging identical sibling subtrees when pruning is on.
func (s *state) branch(cond sym.Term, onTrue, onFalse kont) (*profile.Node, error) {
	s.nConds++
	if cv, ok := sym.IsConst(cond); ok {
		b, bok := cv.AsBool()
		if !bok {
			return nil, fmt.Errorf("condition folded to %s, want bool", cv.Kind())
		}
		if b {
			return onTrue(s)
		}
		return onFalse(s)
	}
	negCond := sym.Negate(cond)
	// Each arm's path constraint is prepared once, for its check and for
	// the arm's later queries.
	truePC, falsePC := s.pc.And(cond), s.pc.And(negCond)
	trueSat := truePC.Check() != solver.Unsat
	falseSat := falsePC.Check() != solver.Unsat
	switch {
	case trueSat && !falseSat:
		s.pc = truePC
		return onTrue(s)
	case !trueSat && falseSat:
		s.pc = falsePC
		return onFalse(s)
	case !trueSat && !falseSat:
		// Contradictory path constraint: the whole path is infeasible.
		// Treat as an empty leaf; it is unreachable at run time.
		return &profile.Node{Seg: s.seg}, nil
	}
	// Both sides feasible: fork.
	s.a.forks++
	s.a.states += 2
	if s.a.states > s.a.opts.maxStates {
		if s.a.opts.truncateOnBudget {
			s.a.truncated = true
			s.pc = truePC
			return onTrue(s)
		}
		return nil, fmt.Errorf("%w (limit %d)", ErrBudget, s.a.opts.maxStates)
	}
	seg := s.seg

	tState := s.clone()
	tState.nForks++
	tState.pc = truePC
	tTree, err := onTrue(tState)
	if err != nil {
		return nil, err
	}
	fState := s.clone()
	fState.nForks++
	fState.pc = falsePC
	fTree, err := onFalse(fState)
	if err != nil {
		return nil, err
	}
	if s.a.opts.prune && treesEqual(tTree, fTree) {
		// Both outcomes produce the same accesses: the conditional cannot
		// affect the RWS. Graft the (identical) subtree onto the current
		// segment, discarding the condition — the paper's pruning rule.
		s.a.pruned++
		merged := *tTree
		merged.Seg = append(append([]profile.Access{}, seg...), tTree.Seg...)
		return &merged, nil
	}
	return &profile.Node{Seg: seg, Cond: cond, True: tTree, False: fTree}, nil
}

func (s *state) keyTerms(key []lang.Expr) ([]sym.Term, error) {
	out := make([]sym.Term, len(key))
	for i, e := range key {
		v, err := s.eval(e)
		if err != nil {
			return nil, err
		}
		t, err := scalarTerm(v)
		if err != nil {
			return nil, fmt.Errorf("key part %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}

// eval evaluates an expression to a symval. Expressions never fork.
func (s *state) eval(e lang.Expr) (symval, error) {
	switch x := e.(type) {
	case lang.Const:
		return concreteSymval(x.V), nil
	case lang.ParamRef:
		v, ok := s.locals[x.Name]
		if !ok {
			return nil, fmt.Errorf("unknown parameter %q", x.Name)
		}
		return v, nil
	case lang.LocalRef:
		v, ok := s.locals[x.Name]
		if !ok {
			return nil, fmt.Errorf("undefined local %q", x.Name)
		}
		return v, nil
	case lang.Bin:
		l, err := s.eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := s.eval(x.R)
		if err != nil {
			return nil, err
		}
		lt, err := scalarTerm(l)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.Op, err)
		}
		rt, err := scalarTerm(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.Op, err)
		}
		return termVal{t: sym.Fold(sym.Bin{Op: x.Op, L: lt, R: rt})}, nil
	case lang.Not:
		v, err := s.eval(x.E)
		if err != nil {
			return nil, err
		}
		t, err := scalarTerm(v)
		if err != nil {
			return nil, err
		}
		return termVal{t: sym.Fold(sym.Not{T: t})}, nil
	case lang.Field:
		v, err := s.eval(x.E)
		if err != nil {
			return nil, err
		}
		return fieldOf(v, x.Name)
	case lang.Index:
		v, err := s.eval(x.E)
		if err != nil {
			return nil, err
		}
		lst, ok := v.(listVal)
		if !ok {
			return nil, fmt.Errorf("index of non-list %T", v)
		}
		iv, err := s.eval(x.I)
		if err != nil {
			return nil, err
		}
		it, err := scalarTerm(iv)
		if err != nil {
			return nil, err
		}
		ic, ok := sym.IsConst(it)
		if !ok {
			return nil, fmt.Errorf("symbolic list index %s unsupported", it)
		}
		idx, ok := ic.AsInt()
		if !ok {
			return nil, fmt.Errorf("non-integer list index")
		}
		if idx < 0 || int(idx) >= len(lst.elems) {
			return nil, fmt.Errorf("list index %d out of range (len %d)", idx, len(lst.elems))
		}
		return lst.elems[idx], nil
	case lang.Rec:
		fields := make(map[string]symval, len(x.Fields))
		for _, f := range x.Fields {
			v, err := s.eval(f.E)
			if err != nil {
				return nil, err
			}
			fields[f.Name] = v
		}
		return recVal{fields: fields}, nil
	default:
		return nil, fmt.Errorf("unknown expression %T", e)
	}
}

// treesEqual compares two profile subtrees structurally.
func treesEqual(a, b *profile.Node) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Seg) != len(b.Seg) {
		return false
	}
	for i := range a.Seg {
		if !accessEqual(a.Seg[i], b.Seg[i]) {
			return false
		}
	}
	if !sym.Equal(a.Cond, b.Cond) {
		return false
	}
	return treesEqual(a.True, b.True) && treesEqual(a.False, b.False)
}

func accessEqual(a, b profile.Access) bool {
	if a.Table != b.Table || a.Write != b.Write || len(a.Key) != len(b.Key) {
		return false
	}
	for i := range a.Key {
		if !sym.Equal(a.Key[i], b.Key[i]) {
			return false
		}
	}
	return true
}

// countUniqueKeySets counts distinct cumulative RWS over all root-to-leaf
// paths (the paper's "unique key-sets" column). Each access is rendered
// once, at its node, and interned to an integer; a leaf's key-set is the
// sorted integers of the accesses on its path.
func countUniqueKeySets(root *profile.Node) int {
	ids := map[string]uint32{}
	seen := map[string]bool{}
	var path, sorted []uint32
	var key []byte
	var walk func(n *profile.Node)
	walk = func(n *profile.Node) {
		if n == nil {
			return
		}
		mark := len(path)
		for _, a := range n.Seg {
			r := a.String()
			id, ok := ids[r]
			if !ok {
				id = uint32(len(ids))
				ids[r] = id
			}
			path = append(path, id)
		}
		if n.Cond == nil {
			sorted = append(sorted[:0], path...)
			slices.Sort(sorted)
			key = key[:0]
			for _, id := range sorted {
				key = binary.LittleEndian.AppendUint32(key, id)
			}
			seen[string(key)] = true
		} else {
			walk(n.True)
			walk(n.False)
		}
		path = path[:mark]
	}
	walk(root)
	return len(seen)
}

// countIndirectKeys counts distinct pivot references appearing anywhere in
// the tree (key expressions and conditions). A pivot variable's name is its
// reference's ID behind a fixed prefix (sym.NewPivot), so the names count
// the references without rendering them again.
func countIndirectKeys(root *profile.Node) int {
	seen := map[string]bool{}
	var vars []*sym.Var
	addTerm := func(t sym.Term) {
		vars = sym.Vars(t, vars[:0])
		for _, v := range vars {
			if v.Pivot != nil {
				seen[v.Name] = true
			}
		}
	}
	var walk func(n *profile.Node)
	walk = func(n *profile.Node) {
		if n == nil {
			return
		}
		for _, a := range n.Seg {
			for _, k := range a.Key {
				addTerm(k)
			}
		}
		if n.Cond != nil {
			addTerm(n.Cond)
			walk(n.True)
			walk(n.False)
		}
	}
	walk(root)
	return len(seen)
}

// keyDirect reports whether no key part depends on a pivot: the access is
// derivable from the transaction inputs alone.
func keyDirect(key []sym.Term) bool {
	for _, k := range key {
		if sym.HasPivot(k) {
			return false
		}
	}
	return true
}

// checkDirectMarks validates the symbolic executor's Direct marks against
// taint.KeyDeterminism: every access in a table the static analysis proves
// all-direct must be marked Direct in the profile tree. The oracle-less
// classification is deliberate: taint.KeyDeterminismOracle with the alias
// zone (internal/lint, which depends on this package) proves a superset of
// tables direct, so checking the plain subset here is the conservative
// direction — any table it proves must still be pivot-free in the profile.
// The lint layer cross-checks the oracle-upgraded classification against
// these profiles over the workload catalogs (TestOracleAgreesWithProfiles).
func checkDirectMarks(p *lang.Program, root *profile.Node) error {
	direct := map[string]bool{}
	for _, t := range taint.KeyDeterminism(p).DirectTables() {
		direct[t] = true
	}
	var walk func(n *profile.Node) error
	walk = func(n *profile.Node) error {
		if n == nil {
			return nil
		}
		for _, a := range n.Seg {
			if direct[a.Table] && !a.Direct {
				return fmt.Errorf("access %s has a pivot-dependent key, but the key-determinism analysis proves table %q direct", a, a.Table)
			}
		}
		if err := walk(n.True); err != nil {
			return err
		}
		return walk(n.False)
	}
	return walk(root)
}
