// Package taint implements the static information-flow analysis the paper
// performs with Soot (§III-B, "Avoiding irrelevant paths"): it identifies
// the *relevant* variables — those with explicit (assignment) or implicit
// (control-flow) information flow into the identity of any data item read or
// written — so the symbolic executor can mark every other variable as
// concrete (concolic execution), collapsing branches that cannot affect the
// read-/write-set.
package taint

import (
	"sort"

	"prognosticator/internal/lang"
	"prognosticator/internal/value"
)

// Result reports the relevant-variable set of one program.
type Result struct {
	relevant map[string]bool
}

// Relevant reports whether the named parameter or local can influence the
// identity of any key accessed by the program.
func (r *Result) Relevant(name string) bool { return r.relevant[name] }

// RelevantNames returns all relevant names in sorted order.
func (r *Result) RelevantNames() []string {
	out := make([]string, 0, len(r.relevant))
	for n := range r.relevant {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Analyze computes the relevant-variable set of p with a backward fixed
// point. The analysis is variable-granular (field-insensitive) and
// conservative: everything that might flow into a key is relevant.
//
// Rules, applied until no change:
//   - seed: every variable appearing in a key expression of GET/PUT/DEL;
//   - explicit flow: if the destination of an assignment (or field store, or
//     GET result) is relevant, the variables of the assigned expression (or
//     GET key) are relevant;
//   - implicit flow: if a branch guards any store operation or any
//     assignment to a relevant variable, the variables of its condition are
//     relevant; similarly a loop whose body performs a store operation or a
//     relevant assignment makes its bound expressions relevant (the
//     iteration count decides how many items are accessed).
func Analyze(p *lang.Program) *Result {
	r := &Result{relevant: map[string]bool{}}
	for changed := true; changed; {
		changed = false
		lang.Walk(p.Root(), func(_ string, st lang.Stmt) {
			if r.stmt(st) {
				changed = true
			}
		})
	}
	return r
}

// stmt applies the rules to one statement, returning true if the relevant
// set grew. Nested statements are visited on their own.
func (r *Result) stmt(st lang.Stmt) bool {
	switch s := st.(type) {
	case lang.Assign:
		return r.relevant[s.Dst] && r.markExpr(s.E)
	case lang.SetField:
		return r.relevant[s.Dst] && r.markExpr(s.E)
	case lang.Get, lang.Del:
		// The GET result is a potential pivot: if it is relevant, the key
		// identifying it is marked here; nothing further flows.
		return r.markExpr(lang.Exprs(st)...)
	case lang.Put:
		// Only the key identity matters; the stored value does not flow
		// into any key by itself (that is the whole point of the
		// optimization: value-only variables are irrelevant).
		return r.markExpr(s.Key...)
	case lang.If:
		return (blockTouchesKeys(s.Then, r) || blockTouchesKeys(s.Else, r)) && r.markExpr(s.Cond)
	case lang.For:
		return blockTouchesKeys(s.Body, r) && r.markExpr(s.From, s.To)
	}
	return false
}

// BlockTouchesKeys reports whether the block contains any store operation
// or any assignment to a relevant variable — i.e. whether executing or
// skipping the block can change the RWS. The symbolic executor uses it to
// avoid forking at branches that provably cannot affect the profile even
// when their condition is symbolic (e.g. TPC-C's remote-warehouse counter
// update: the condition involves key variables, but both arms only touch
// written values).
func (r *Result) BlockTouchesKeys(body []lang.Stmt) bool {
	return blockTouchesKeys(body, r)
}

// blockTouchesKeys reports whether the block contains any store operation or
// any assignment to a currently-relevant variable — i.e. whether executing
// or skipping the block can change the RWS.
func blockTouchesKeys(body []lang.Stmt, r *Result) bool {
	for _, st := range body {
		switch s := st.(type) {
		case lang.Get, lang.Put, lang.Del:
			return true
		case lang.Assign:
			if r.relevant[s.Dst] {
				return true
			}
		case lang.SetField:
			if r.relevant[s.Dst] {
				return true
			}
		case lang.If:
			if blockTouchesKeys(s.Then, r) || blockTouchesKeys(s.Else, r) {
				return true
			}
		case lang.For:
			if blockTouchesKeys(s.Body, r) {
				return true
			}
		}
	}
	return false
}

// markExpr marks every variable the expressions mention as relevant,
// returning true if the set grew.
func (r *Result) markExpr(es ...lang.Expr) bool {
	changed := false
	for _, e := range es {
		lang.Inspect(e, func(x lang.Expr) bool {
			if name, ok := varName(x); ok && !r.relevant[name] {
				r.relevant[name] = true
				changed = true
			}
			return true
		})
	}
	return changed
}

// varName returns the parameter or local an expression reads directly.
func varName(e lang.Expr) (string, bool) {
	switch x := e.(type) {
	case lang.ParamRef:
		return x.Name, true
	case lang.LocalRef:
		return x.Name, true
	}
	return "", false
}

// SampleValue returns a deterministic concrete value for an irrelevant
// parameter: the low bound for ints, an empty string, false, or a list of
// element samples at full capacity. The concrete choice cannot affect the
// RWS — that is exactly what irrelevance guarantees — so any fixed value is
// correct.
func SampleValue(p lang.Param) value.Value {
	switch p.Kind {
	case value.KindInt:
		return value.Int(p.Lo)
	case value.KindString:
		return value.Str("")
	case value.KindBool:
		return value.Bool(false)
	case value.KindList:
		elems := make([]value.Value, p.MaxLen)
		for i := range elems {
			if p.Elem != nil {
				elems[i] = SampleValue(*p.Elem)
			} else {
				elems[i] = value.Int(0)
			}
		}
		return value.List(elems...)
	default:
		return value.Int(0)
	}
}
