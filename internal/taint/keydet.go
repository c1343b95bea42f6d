package taint

import (
	"slices"
	"sort"

	"prognosticator/internal/lang"
)

// Key-determinism classification (§III-C): for each store access, decide
// statically whether its key is *direct* — derivable from the transaction
// inputs alone — or *pivot-dependent* — its identity flows from a prior GET
// result. Together with traversal-pivot detection (does any branch that can
// change the RWS depend on a GET result?) this proves, per procedure,
// whether the direct part of the key-set can be predicted client-side
// without touching the store.
//
// The analysis is a forward flow-insensitive fixed point over the
// pivot-derived variable set, the dual of the relevant-variable analysis in
// this package: Analyze asks "what flows INTO keys", KeyDeterminism asks
// "what flows OUT OF store reads". Flow-insensitivity (one set for the whole
// procedure, no kill on reassignment) makes the result a sound
// over-approximation: a variable is only classified input-derived when no
// assignment anywhere can make it depend on store state.

// AccessOp names the store operation of an AccessClass.
type AccessOp string

// Store operations.
const (
	OpGet AccessOp = "GET"
	OpPut AccessOp = "PUT"
	OpDel AccessOp = "DEL"
)

// AccessClass is the per-access key-determinism verdict: one record per
// GET/PUT/DEL, with a per-key-part direct/pivot-dependent classification and,
// for pivot-dependent parts, the set of pivot-derived variables the part
// mentions (the proof witness).
type AccessClass struct {
	// Path is the structural statement path (e.g. "body[2].then[0]"); Pos
	// its source position (zero for builder-constructed programs).
	Path string
	Pos  lang.Pos

	Table string
	Op    AccessOp
	Write bool

	// PartDirect[i] reports whether key part i is derivable from the inputs
	// alone. PartVia[i] lists the pivot-derived variables part i mentions
	// (sorted; empty iff PartDirect[i]).
	PartDirect []bool
	PartVia    [][]string
}

// Direct reports whether every key part is input-derived.
func (a AccessClass) Direct() bool {
	for _, d := range a.PartDirect {
		if !d {
			return false
		}
	}
	return true
}

// Via returns the union of pivot-derived variables across all key parts,
// sorted.
func (a AccessClass) Via() []string {
	seen := map[string]bool{}
	var out []string
	for _, vs := range a.PartVia {
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// KeyDet is the key-determinism analysis result for one program.
type KeyDet struct {
	// Accesses holds one record per store operation, in statement order.
	Accesses []AccessClass
	// PivotDerived is the set of variables whose value may depend on store
	// state (GET results and everything computed from them, including the
	// induction variables of loops with pivot-derived bounds).
	PivotDerived map[string]bool
	// TraversalPivot reports whether some branch or loop bound that can
	// change the RWS depends on a pivot-derived variable: the profile tree
	// then cannot be traversed from the inputs alone, and the direct subset
	// of the key-set is not predictable client-side.
	TraversalPivot bool
}

// DirectCount returns how many accesses are fully direct.
func (kd *KeyDet) DirectCount() int {
	n := 0
	for _, a := range kd.Accesses {
		if a.Direct() {
			n++
		}
	}
	return n
}

// PivotFreeTraversal reports whether the profile tree of this program can be
// walked with inputs alone: no RWS-relevant branch or loop bound depends on
// store state. When true, every access classified Direct here is predictable
// client-side (the §III-C optimization).
func (kd *KeyDet) PivotFreeTraversal() bool { return !kd.TraversalPivot }

// DirectTables returns the tables for which EVERY access in the program is
// direct, sorted. The symbolic executor cross-checks its per-access Direct
// marks against this set: a profile access with a pivot in its key, in a
// table this analysis proves all-direct, indicates an analysis bug.
func (kd *KeyDet) DirectTables() []string {
	direct := map[string]bool{}
	for _, a := range kd.Accesses {
		if prev, ok := direct[a.Table]; ok {
			direct[a.Table] = prev && a.Direct()
		} else {
			direct[a.Table] = a.Direct()
		}
	}
	var out []string
	for t, d := range direct {
		if d {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// EqualityOracle answers relational queries the flow-insensitive analysis
// cannot: whether a local, at a given structural statement path, provably
// equals an integer constant or a parameter plus a constant offset on every
// execution reaching that point. The lint package's alias-zone solution
// implements it; the contract is that such equalities derive from
// assignment chains alone (never from guards or interval evaluation), so
// the symbolic executor's per-path key term is input-only wherever the
// oracle says resolvable — static Direct claims stay aligned with profile
// Direct marks.
type EqualityOracle interface {
	InputResolvable(path, name string) bool
}

// KeyDeterminism classifies every store access of p without relational
// facts (equivalent to KeyDeterminismOracle with a nil oracle).
func KeyDeterminism(p *lang.Program) *KeyDet {
	return KeyDeterminismOracle(p, nil)
}

// allResolvable reports whether the oracle proves every named variable
// input-resolvable at the path.
func allResolvable(oracle EqualityOracle, path string, names []string) bool {
	if oracle == nil {
		return false
	}
	for _, n := range names {
		if !oracle.InputResolvable(path, n) {
			return false
		}
	}
	return len(names) > 0
}

// KeyDeterminismOracle classifies every store access of p, consulting the
// oracle (when non-nil) to upgrade pivot-dependent key parts that provably
// equal an input-derived value, and to discharge traversal pivots whose
// condition variables are all input-resolvable.
func KeyDeterminismOracle(p *lang.Program, oracle EqualityOracle) *KeyDet {
	kd := &KeyDet{PivotDerived: map[string]bool{}}

	// Fixed point: GET results are pivot-derived; any assignment whose RHS
	// mentions a pivot-derived variable propagates (field stores taint the
	// whole record — the analysis is field-insensitive, like Analyze); a
	// loop with a pivot-derived bound taints its induction variable.
	for changed := true; changed; {
		changed = false
		mark := func(name string) {
			if !kd.PivotDerived[name] {
				kd.PivotDerived[name] = true
				changed = true
			}
		}
		lang.Walk(p.Root(), func(_ string, st lang.Stmt) {
			switch s := st.(type) {
			case lang.Get:
				mark(s.Dst)
			case lang.Assign:
				if exprMentions(kd.PivotDerived, s.E) {
					mark(s.Dst)
				}
			case lang.SetField:
				if exprMentions(kd.PivotDerived, s.E) {
					mark(s.Dst)
				}
			case lang.For:
				if exprMentions(kd.PivotDerived, s.From, s.To) {
					mark(s.Var)
				}
			}
		})
	}

	// Traversal pivots: a condition (or loop bound) that mentions a
	// pivot-derived variable AND guards a block that can change the RWS.
	// RWS-irrelevance is decided by the relevant-variable analysis — the
	// same criterion the symbolic executor uses to skip the fork, so a
	// branch it would not fork on cannot become a traversal pivot here —
	// refined field-sensitively: arms that only write inert record fields
	// (fields whose stored value provably never flows back into the RWS)
	// cannot change the key-set either, mirroring the executor's merge of
	// identical fork subtrees. A pivot condition is also discharged when
	// the oracle proves every pivot-derived variable it mentions equal to
	// an input-derived value at that point.
	//
	// Accesses are classified in the same walk, in statement order.
	rel := Analyze(p)
	inert := inertFields(p, rel)
	classify := func(table string, op AccessOp, write bool, key []lang.Expr, pos lang.Pos, path string) {
		ac := AccessClass{Path: path, Pos: pos, Table: table, Op: op, Write: write,
			PartDirect: make([]bool, len(key)), PartVia: make([][]string, len(key))}
		for i, k := range key {
			via := mentionsOf(kd.PivotDerived, k)
			if len(via) > 0 && allResolvable(oracle, path, via) {
				// Every pivot-derived variable in this part provably equals
				// an input-derived value at this point: the part is direct
				// after all, and the witness set is empty.
				via = nil
			}
			ac.PartDirect[i] = len(via) == 0
			ac.PartVia[i] = via
		}
		kd.Accesses = append(kd.Accesses, ac)
	}
	pivot := func(path string, via []string, arms ...[]lang.Stmt) {
		if len(via) == 0 || allResolvable(oracle, path, via) {
			return
		}
		for _, arm := range arms {
			if !rwsInert(arm, rel, inert) {
				kd.TraversalPivot = true
			}
		}
	}
	lang.Walk(p.Root(), func(path string, st lang.Stmt) {
		switch s := st.(type) {
		case lang.If:
			pivot(path, mentionsOf(kd.PivotDerived, s.Cond), s.Then, s.Else)
		case lang.For:
			pivot(path, mentionsOf(kd.PivotDerived, s.From, s.To), s.Body)
		case lang.Get:
			classify(s.Table, OpGet, false, s.Key, s.Pos, path)
		case lang.Put:
			classify(s.Table, OpPut, true, s.Key, s.Pos, path)
		case lang.Del:
			classify(s.Table, OpDel, true, s.Key, s.Pos, path)
		}
	})
	return kd
}

// fieldKey identifies one (record local, field) pair for the
// field-sensitive inertness refinement.
type fieldKey struct{ rec, field string }

// inertFields computes the greatest set of (local, field) pairs whose
// stored value provably cannot influence this transaction's read/write
// set. Writing such a field is RWS-inert, so a branch whose arms only
// write inert fields is not a traversal pivot even when its condition is
// pivot-derived — the symbolic executor reaches the same conclusion
// dynamically by merging the identical fork subtrees.
//
// The set starts at every SetField target and a leak pass deletes each
// pair whose field value can flow back toward the RWS: reads in key
// expressions, assignment and loop-bound right-hand sides, conditions
// guarding non-inert work, and PUT values that a later GET of the same
// table may re-read. Reads feeding an inert SetField target stay
// contained (if that target is ever itself read in a leaking position,
// its deletion re-triggers the pass). Emitted values leave the
// transaction and cannot re-enter the read/write set. Iterating to a
// fixed point makes the result coinductively sound: any concrete
// influence chain from a field to the RWS ends in a leaking read, and
// the deletions propagate backward along the chain.
func inertFields(p *lang.Program, rel *Result) map[fieldKey]bool {
	// Pre-order statement numbering: a PUT value can be re-read only by a
	// same-table GET later in program order, or by any same-table GET when
	// the PUT sits inside a loop (a later iteration's GET follows it).
	inert := map[fieldKey]bool{}
	maxGetOrder := map[string]int{}
	looped := map[string]bool{}
	order := 0
	lang.Walk(p.Root(), func(path string, st lang.Stmt) {
		order++
		switch s := st.(type) {
		case lang.SetField:
			inert[fieldKey{s.Dst, s.Field}] = true
		case lang.Get:
			maxGetOrder[s.Table] = order
		case lang.For:
			lang.Walk(lang.Nested(st, path)[0], func(path string, _ lang.Stmt) { looped[path] = true })
		}
	})
	if len(inert) == 0 {
		return inert
	}

	for changed := true; changed; {
		changed = false
		drop := func(k fieldKey) {
			if inert[k] {
				delete(inert, k)
				changed = true
			}
		}
		// leak drops every field pair the expressions read: a direct Field
		// read of a local drops that pair; a bare local read exposes all its
		// fields.
		leak := func(es ...lang.Expr) {
			for _, e := range es {
				lang.Inspect(e, func(x lang.Expr) bool {
					switch x := x.(type) {
					case lang.LocalRef:
						for k := range inert {
							if k.rec == x.Name {
								drop(k)
							}
						}
					case lang.Field:
						if base, ok := x.E.(lang.LocalRef); ok {
							drop(fieldKey{base.Name, x.Name})
							return false
						}
					}
					return true
				})
			}
		}
		pos := 0
		lang.Walk(p.Root(), func(path string, st lang.Stmt) {
			pos++
			switch s := st.(type) {
			case lang.Get, lang.Del, lang.Assign:
				leak(lang.Exprs(st)...)
			case lang.Put:
				leak(s.Key...)
				if maxGetOrder[s.Table] > pos || (looped[path] && maxGetOrder[s.Table] > 0) {
					leak(s.Val)
				}
			case lang.SetField:
				if !inert[fieldKey{s.Dst, s.Field}] {
					leak(s.E)
				}
			case lang.If:
				if !rwsInert(s.Then, rel, inert) || !rwsInert(s.Else, rel, inert) {
					leak(s.Cond)
				}
			case lang.For:
				if !rwsInert(s.Body, rel, inert) {
					leak(s.From, s.To)
				}
			}
		})
	}
	return inert
}

// rwsInert reports whether executing body provably cannot change the
// read/write set, under the current inert-field set. It is never stricter
// than the negation of blockTouchesKeys — a SetField passes when its
// target pair is inert OR its destination is RWS-irrelevant — so the
// refinement can only discharge traversal pivots, never introduce them.
func rwsInert(body []lang.Stmt, rel *Result, inert map[fieldKey]bool) bool {
	for _, st := range body {
		switch s := st.(type) {
		case lang.Get, lang.Put, lang.Del:
			return false
		case lang.Assign:
			if rel.Relevant(s.Dst) {
				return false
			}
		case lang.SetField:
			if !inert[fieldKey{s.Dst, s.Field}] && rel.Relevant(s.Dst) {
				return false
			}
		case lang.If:
			if !rwsInert(s.Then, rel, inert) || !rwsInert(s.Else, rel, inert) {
				return false
			}
		case lang.For:
			if !rwsInert(s.Body, rel, inert) {
				return false
			}
		}
	}
	return true
}

// exprMentions reports whether the expressions mention any variable in set.
func exprMentions(set map[string]bool, es ...lang.Expr) bool {
	return len(mentionsOf(set, es...)) > 0
}

// mentionsOf returns the variables of set the expressions mention, sorted.
func mentionsOf(set map[string]bool, es ...lang.Expr) []string {
	var out []string
	for _, e := range es {
		lang.Inspect(e, func(x lang.Expr) bool {
			if name, ok := varName(x); ok && set[name] && !slices.Contains(out, name) {
				out = append(out, name)
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}
