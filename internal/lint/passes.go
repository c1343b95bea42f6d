package lint

import (
	"fmt"

	"prognosticator/internal/lang"
	"prognosticator/internal/solver"
	"prognosticator/internal/sym"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
)

// access returns the table and key of a GET, PUT or DEL.
func access(st lang.Stmt) (table string, key []lang.Expr, ok bool) {
	switch s := st.(type) {
	case lang.Get:
		return s.Table, s.Key, true
	case lang.Put:
		return s.Table, s.Key, true
	case lang.Del:
		return s.Table, s.Key, true
	}
	return "", nil, false
}

// --- schema: unknown tables and key-arity mismatches, positioned ---

type schemaPass struct{}

func (schemaPass) Name() string { return "schema" }

func (schemaPass) Run(pc *ProgContext) []Finding {
	if pc.Schema == nil {
		return nil
	}
	var out []Finding
	lang.Walk(pc.Prog.Root(), func(path string, st lang.Stmt) {
		table, key, ok := access(st)
		if !ok {
			return
		}
		spec, ok := pc.Schema.Table(table)
		if !ok {
			out = append(out, Finding{
				Prog: pc.Prog.Name, Pass: "schema", Pos: st.StmtPos(), Path: path,
				Severity: SevError,
				Message:  fmt.Sprintf("unknown table %q", table),
			})
			return
		}
		if len(key) != spec.KeyArity {
			out = append(out, Finding{
				Prog: pc.Prog.Name, Pass: "schema", Pos: st.StmtPos(), Path: path,
				Severity: SevError,
				Message: fmt.Sprintf("table %q expects %d key parts, got %d",
					table, spec.KeyArity, len(key)),
			})
		}
	})
	return out
}

// --- use-before-assign: dataflow over the CFG ---

type useBeforeAssignPass struct{}

func (useBeforeAssignPass) Name() string { return "use-before-assign" }

func (useBeforeAssignPass) Run(pc *ProgContext) []Finding {
	cfg := pc.CFG()
	reach := pc.Reach()
	var out []Finding
	for _, n := range cfg.Nodes {
		if n.Stmt == nil {
			continue
		}
		for _, v := range n.Uses {
			if reach.MaybeUndefined(n.ID, v) {
				out = append(out, Finding{
					Prog: pc.Prog.Name, Pass: "use-before-assign", Pos: n.Pos, Path: n.Path,
					Severity: SevError,
					Message:  fmt.Sprintf("local %q may be used before assignment (not defined on every path reaching here)", v),
				})
			}
		}
	}
	return out
}

// --- loop-bound: unrolling must be bounded by the declared input domains ---

type loopBoundPass struct{}

func (loopBoundPass) Name() string { return "loop-bound" }

func (loopBoundPass) Run(pc *ProgContext) []Finding {
	var out []Finding
	lang.Walk(pc.Prog.Root(), func(path string, st lang.Stmt) {
		s, ok := st.(lang.For)
		if !ok {
			return
		}
		// Bounds are evaluated on the abstract-domain API: the interval
		// environment handles constants, declared parameter domains, and
		// locals through assignments and joins; the relational zone tightens
		// the result with difference-bound facts that survive joins (e.g. a
		// limit clamped against a constant on one path only).
		evalAt := func(e lang.Expr) AbsVal {
			env, found := pc.Abs().EnvAt(path)
			if !found || env == nil {
				env = AbsEnv{}
			}
			v := absEval(e, pc.Prog, env)
			if zv, found := pc.Zone().ExprBoundsAt(path, e); found && zv.Bounded() {
				if !v.Bounded() {
					v = zv
				} else {
					v = absRange(max(v.Lo, zv.Lo), min(v.Hi, zv.Hi))
				}
			}
			return v
		}
		fromV, toV := evalAt(s.From), evalAt(s.To)
		fromLo, fromOK := fromV.Lo, fromV.Bounded()
		toHi, toOK := toV.Hi, toV.Bounded()
		if !fromOK || !toOK {
			out = append(out, Finding{
				Prog: pc.Prog.Name, Pass: "loop-bound", Pos: s.Pos, Path: path,
				Severity: SevError,
				Message: fmt.Sprintf("bounds of loop %q are not derivable from declared input domains; "+
					"the symbolic executor cannot bound its unrolling (symexec.ErrBudget risk)", s.Var),
			})
			return
		}
		// A lower bound the abstract domains prove to be a single constant on
		// every path is concrete to the symbolic executor too.
		fromC, single := fromV.Singleton()
		isConst := single && fromC.Kind() == value.KindInt
		if !isConst && pc.Taint().BlockTouchesKeys(s.Body) {
			out = append(out, Finding{
				Prog: pc.Prog.Name, Pass: "loop-bound", Pos: s.Pos, Path: path,
				Severity: SevError,
				Message: fmt.Sprintf("loop %q touches keys but its lower bound is not a constant; "+
					"the symbolic executor requires a concrete lower bound", s.Var),
			})
		}
		if maxTrip := toHi - fromLo; maxTrip > int64(symexec.DefaultMaxLoopUnroll) {
			out = append(out, Finding{
				Prog: pc.Prog.Name, Pass: "loop-bound", Pos: s.Pos, Path: path,
				Severity: SevError,
				Message: fmt.Sprintf("loop %q may run up to %d iterations, exceeding the symbolic executor's "+
					"unroll budget (%d): symexec.ErrBudget risk", s.Var, maxTrip, symexec.DefaultMaxLoopUnroll),
			})
		} else if toHi <= fromLo {
			out = append(out, Finding{
				Prog: pc.Prog.Name, Pass: "loop-bound", Pos: s.Pos, Path: path,
				Severity: SevWarning,
				Message:  fmt.Sprintf("loop %q never executes: upper bound ≤ lower bound over all declared inputs", s.Var),
			})
		}
	})
	return out
}

// --- pivot-key: GET results flowing into key identity (profile fallback) ---

type pivotKeyPass struct{}

func (pivotKeyPass) Name() string { return "pivot-key" }

func (pivotKeyPass) Run(pc *ProgContext) []Finding {
	tr := pc.Taint()
	kd := pc.KeyDet()
	var out []Finding
	lang.Walk(pc.Prog.Root(), func(path string, st lang.Stmt) {
		s, ok := st.(lang.Get)
		if !ok {
			return
		}
		if !tr.Relevant(s.Dst) {
			return
		}
		msg := fmt.Sprintf("GET result %q influences the identity of later accesses: the key-set depends "+
			"on store state (dependent transaction; preparation falls back to pivot reads)", s.Dst)
		if kd.PivotFreeTraversal() {
			// Key-determinism proof: no key-relevant branch or loop bound
			// depends on store state, so the profile tree is walked from the
			// inputs alone and every direct access skips its pivot reads.
			msg = fmt.Sprintf("GET result %q influences the identity of later accesses (dependent transaction), "+
				"but the traversal is pivot-free: the direct part of the key-set is predicted client-side "+
				"(%d of %d accesses direct)", s.Dst, kd.DirectCount(), len(kd.Accesses))
		}
		out = append(out, Finding{
			Prog: pc.Prog.Name, Pass: "pivot-key", Pos: s.Pos, Path: path,
			Severity: SevInfo,
			Message:  msg,
		})
	})
	return out
}

// --- dead-branch: conditions decidable over the declared input domains ---

type deadBranchPass struct{}

func (deadBranchPass) Name() string { return "dead-branch" }

func (deadBranchPass) Run(pc *ProgContext) []Finding {
	var out []Finding
	deadBranchWalk(pc, pc.Prog.Root(), nil, &out)
	return out
}

// deadBranchWalk threads the path constraint through nested conditionals so
// that e.g. the inner branch of `if x < 5 { if x > 7 {...} }` is reported.
// Conditions over locals are handled two ways, each sound on its own:
// substituting each local with its abstract interval/constant value at the
// statement's CFG node and asking the solver (the interval relaxation
// over-approximates every reachable value, so Unsat verdicts carry over),
// and assuming the condition in the relational zone state, where guards
// comparing two locals — invisible to the interval relaxation — become
// negative-cycle infeasibilities.
func deadBranchWalk(pc *ProgContext, b lang.Block, cons []sym.Term, out *[]Finding) {
	prog := pc.Prog
	for i, st := range b.Stmts {
		path := b.Path(i)
		nested := lang.Nested(st, path)
		switch s := st.(type) {
		case lang.If:
			thenDead := pc.Zone().CondDead(path, s.Cond, false)
			elseDead := pc.Zone().CondDead(path, s.Cond, true)
			report := func(thenDead, elseDead bool) {
				if thenDead {
					*out = append(*out, Finding{
						Prog: prog.Name, Pass: "dead-branch", Pos: s.Pos, Path: path,
						Severity: SevWarning,
						Message:  "condition is always false over the declared input domains: then-branch is dead",
					})
				}
				if elseDead {
					msg := "condition is always true over the declared input domains"
					if len(s.Else) > 0 {
						msg += ": else-branch is dead"
					}
					*out = append(*out, Finding{
						Prog: prog.Name, Pass: "dead-branch", Pos: s.Pos, Path: path,
						Severity: SevWarning,
						Message:  msg,
					})
				}
			}
			cond, ok := exprTermEnv(s.Cond, pc, path)
			if !ok {
				// Condition depends on store state or unbounded locals: the
				// solver cannot see it, but the zone verdicts still apply.
				report(thenDead, elseDead)
				deadBranchWalk(pc, nested[0], cons, out)
				deadBranchWalk(pc, nested[1], cons, out)
				continue
			}
			cond = sym.Fold(cond)
			neg := sym.Negate(cond)
			thenCons := append(append([]sym.Term{}, cons...), cond)
			elseCons := append(append([]sym.Term{}, cons...), neg)
			report(thenDead || solver.Check(thenCons) == solver.Unsat,
				elseDead || solver.Check(elseCons) == solver.Unsat)
			deadBranchWalk(pc, nested[0], thenCons, out)
			deadBranchWalk(pc, nested[1], elseCons, out)
		case lang.For:
			// The induction variable gets its interval from the abstract
			// environment inside the body, so conditions on it are decidable
			// when the bounds are. Empty-interval loops are the loop-bound
			// pass's report ("never executes"), not duplicated here.
			deadBranchWalk(pc, nested[0], cons, out)
		}
	}
}

// exprTerm converts a side-effect-free expression over constants and scalar
// parameters to a symbolic term for the solver. ok is false when the
// expression touches locals, store values, lists or records.
func exprTerm(e lang.Expr, prog *lang.Program) (sym.Term, bool) {
	switch x := e.(type) {
	case lang.Const:
		return sym.Const{V: x.V}, true
	case lang.ParamRef:
		prm, ok := prog.Param(x.Name)
		if !ok {
			return nil, false
		}
		switch prm.Kind {
		case value.KindInt, value.KindString, value.KindBool:
			return sym.NewInput(prm.Name, prm.Kind, prm.Lo, prm.Hi), true
		default:
			return nil, false
		}
	case lang.Bin:
		l, lok := exprTerm(x.L, prog)
		r, rok := exprTerm(x.R, prog)
		if !lok || !rok {
			return nil, false
		}
		return sym.Bin{Op: x.Op, L: l, R: r}, true
	case lang.Not:
		t, ok := exprTerm(x.E, prog)
		if !ok {
			return nil, false
		}
		return sym.Not{T: t}, true
	default:
		return nil, false
	}
}

// exprTermEnv extends exprTerm with locals whose abstract value at the
// statement's CFG node is a single constant or a bounded interval. Interval
// locals become fresh solver variables named "local@nodeID": distinct
// statements never share a variable (a local may be reassigned between
// them), while multiple mentions within one condition do (the local has one
// value per evaluation). The interval relaxation only ever widens the
// feasible set, so Unsat verdicts remain sound.
func exprTermEnv(e lang.Expr, pc *ProgContext, path string) (sym.Term, bool) {
	env, okEnv := pc.Abs().EnvAt(path)
	id, okNode := pc.CFG().NodeAt(path)
	var conv func(e lang.Expr) (sym.Term, bool)
	conv = func(e lang.Expr) (sym.Term, bool) {
		switch x := e.(type) {
		case lang.LocalRef:
			if !okEnv || !okNode || env == nil {
				return nil, false
			}
			v := env.Lookup(x.Name)
			if c, single := v.Singleton(); single {
				return sym.Const{V: c}, true
			}
			if v.Bounded() {
				return sym.NewInput(fmt.Sprintf("%s@%d", x.Name, id), value.KindInt, v.Lo, v.Hi), true
			}
			return nil, false
		case lang.Bin:
			l, lok := conv(x.L)
			r, rok := conv(x.R)
			if !lok || !rok {
				return nil, false
			}
			return sym.Bin{Op: x.Op, L: l, R: r}, true
		case lang.Not:
			t, ok := conv(x.E)
			if !ok {
				return nil, false
			}
			return sym.Not{T: t}, true
		default:
			return exprTerm(e, pc.Prog)
		}
	}
	return conv(e)
}

// --- param-domain: declarations the analyses depend on ---

type paramDomainPass struct{}

func (paramDomainPass) Name() string { return "param-domain" }

func (paramDomainPass) Run(pc *ProgContext) []Finding {
	var out []Finding
	report := func(sev Severity, format string, args ...any) {
		out = append(out, Finding{
			Prog: pc.Prog.Name, Pass: "param-domain", Path: "params",
			Severity: sev, Message: fmt.Sprintf(format, args...),
		})
	}
	used := paramRefs(pc.Prog)
	for _, prm := range pc.Prog.Params {
		switch prm.Kind {
		case value.KindInt:
			checkIntDomain(prm.Name, prm.Lo, prm.Hi, report)
		case value.KindList:
			if prm.MaxLen <= 0 {
				report(SevError, "list parameter %q has no capacity (MaxLen %d)", prm.Name, prm.MaxLen)
			}
			if prm.Elem == nil {
				report(SevError, "list parameter %q has no element specification", prm.Name)
			} else if prm.Elem.Kind == value.KindInt {
				checkIntDomain(prm.Name+" (element)", prm.Elem.Lo, prm.Elem.Hi, report)
			}
			if prm.LenParam != "" {
				lp, ok := pc.Prog.Param(prm.LenParam)
				switch {
				case !ok:
					// Schema.Validate reports unknown length parameters; no
					// duplicate finding here.
				case lp.Kind != value.KindInt:
					report(SevError, "list parameter %q: length parameter %q is %s, want int",
						prm.Name, prm.LenParam, lp.Kind)
				case lp.Hi > int64(prm.MaxLen):
					report(SevError, "list parameter %q: length parameter %q can reach %d, beyond capacity %d "+
						"(runtime index out of range)", prm.Name, prm.LenParam, lp.Hi, prm.MaxLen)
				case lp.Lo < 0:
					report(SevError, "list parameter %q: length parameter %q can be negative (%d)",
						prm.Name, prm.LenParam, lp.Lo)
				}
			}
		}
		if !used[prm.Name] {
			report(SevWarning, "parameter %q is never used", prm.Name)
		}
	}
	return out
}

func checkIntDomain(name string, lo, hi int64, report func(Severity, string, ...any)) {
	switch {
	case lo > hi:
		report(SevError, "int parameter %q has empty domain [%d..%d]", name, lo, hi)
	case lo == 0 && hi == 0:
		report(SevWarning, "int parameter %q has no declared domain (defaults to [0..0]); "+
			"declare the benchmark bounds so the analyses can use them", name)
	}
}

// paramRefs returns the parameter names referenced anywhere in the program,
// including use as a list length parameter.
func paramRefs(p *lang.Program) map[string]bool {
	used := map[string]bool{}
	lang.Walk(p.Root(), func(_ string, st lang.Stmt) {
		for _, e := range lang.Exprs(st) {
			lang.Inspect(e, func(x lang.Expr) bool {
				if r, ok := x.(lang.ParamRef); ok {
					used[r.Name] = true
				}
				return true
			})
		}
	})
	for _, prm := range p.Params {
		if prm.LenParam != "" {
			used[prm.LenParam] = true
		}
	}
	return used
}
