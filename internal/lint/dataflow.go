package lint

import "sort"

// Def identifies one definition site: the CFG node assigning Var. The
// synthetic definition with Node == UndefNode models "no assignment has
// happened yet" and is generated at the entry for every local of the
// program; its reaching a use is exactly the may-use-before-assign
// condition.
type Def struct {
	Node int
	Var  string
}

// UndefNode is the pseudo-node of synthetic "still undefined" definitions.
const UndefNode = -1

// ReachingDefs is the solution of the classic forward may-analysis
//
//	in(n)  = union of out(p) over predecessors p
//	out(n) = gen(n) ∪ (in(n) − kill(n))
//
// over the definition sites of a CFG, with gen(n) the definitions made at n
// and kill(n) every other definition of the same variables.
type ReachingDefs struct {
	cfg *CFG
	// in[nodeID] is the set of definitions reaching the node's entry.
	in []map[Def]bool
}

// SolveReachingDefs computes the reaching-definitions fixed point with a
// worklist iteration. Cost is O(nodes × defs) per round; procedure bodies
// are tiny, so no bitset machinery is warranted.
func SolveReachingDefs(cfg *CFG) *ReachingDefs {
	r := &ReachingDefs{cfg: cfg, in: make([]map[Def]bool, len(cfg.Nodes))}
	out := make([]map[Def]bool, len(cfg.Nodes))
	for i := range cfg.Nodes {
		r.in[i] = map[Def]bool{}
		out[i] = map[Def]bool{}
	}

	// defsOf[v] lists every definition site of v, for kill sets. vars also
	// includes locals that are only ever used — they have no real definition
	// site but still need a synthetic "undefined" one.
	defsOf := map[string][]Def{}
	vars := map[string]bool{}
	for _, n := range cfg.Nodes {
		for _, v := range n.Defs {
			defsOf[v] = append(defsOf[v], Def{Node: n.ID, Var: v})
			vars[v] = true
		}
		for _, v := range n.Uses {
			vars[v] = true
		}
	}
	// The entry generates the synthetic "undefined" definition of every
	// local; any real definition kills it.
	entryGen := map[Def]bool{}
	for v := range vars {
		u := Def{Node: UndefNode, Var: v}
		defsOf[v] = append(defsOf[v], u)
		entryGen[u] = true
	}

	work := make([]int, 0, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		work = append(work, n.ID)
	}
	inWork := make([]bool, len(cfg.Nodes))
	for _, id := range work {
		inWork[id] = true
	}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		inWork[id] = false
		n := cfg.Nodes[id]

		in := map[Def]bool{}
		for _, p := range n.Preds {
			for d := range out[p] {
				in[d] = true
			}
		}
		r.in[id] = in

		newOut := map[Def]bool{}
		killed := map[string]bool{}
		for _, v := range n.Defs {
			killed[v] = true
			newOut[Def{Node: id, Var: v}] = true
		}
		if id == cfg.Entry {
			for d := range entryGen {
				newOut[d] = true
			}
		}
		for d := range in {
			if !killed[d.Var] {
				newOut[d] = true
			}
		}
		if !defSetEqual(newOut, out[id]) {
			out[id] = newOut
			for _, s := range n.Succs {
				if !inWork[s] {
					inWork[s] = true
					work = append(work, s)
				}
			}
		}
	}
	return r
}

func defSetEqual(a, b map[Def]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		if !b[d] {
			return false
		}
	}
	return true
}

// In returns the definitions reaching the entry of node id, sorted.
func (r *ReachingDefs) In(id int) []Def {
	out := make([]Def, 0, len(r.in[id]))
	for d := range r.in[id] {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Var != out[j].Var {
			return out[i].Var < out[j].Var
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// DefsReaching returns the definition sites of v reaching node id, sorted by
// node. The synthetic UndefNode definition, when present, sorts first.
func (r *ReachingDefs) DefsReaching(id int, v string) []Def {
	var out []Def
	for d := range r.in[id] {
		if d.Var == v {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// MaybeUndefined reports whether the local v may still be unassigned when
// node id executes: the synthetic "undefined" definition reaches the node.
func (r *ReachingDefs) MaybeUndefined(id int, v string) bool {
	return r.in[id][Def{Node: UndefNode, Var: v}]
}

// domain is what an abstract domain hands fixpoint: the interval analysis
// (AbsState) and the zone analysis (ZoneState) run the same loop.
type domain[S any] interface {
	// flow returns what node n, visited with its stored entry state, passes
	// along its edge to each successor.
	flow(n *Node) func(succ int) S
	// merge joins src into dst, the state stored at succ, widening on a
	// back edge. It returns the new state, or false when nothing changed.
	merge(dst, src S, back bool, succ int) (S, bool)
	// top forgets everything a reached state knows (an unreached one stays
	// unreached).
	top(S) S
}

// fixpoint runs a forward worklist analysis over cfg to a fixed point. in
// holds each node's entry state; the entry node's must be set, every other
// node starts unreached. Construction order makes every back edge point to a
// lower-or-equal ID (a For node precedes its body; an empty body yields a
// self-edge), so an edge is widened exactly when it does. Past limit visits
// the loop gives up, degrades every reached state to ⊤ — sound, maximally
// imprecise — and reports capped, so termination does not rest on the
// domain being bug-free.
func fixpoint[S any](cfg *CFG, in []S, limit int, d domain[S]) (visits int, capped bool) {
	work := []int{cfg.Entry}
	queued := make([]bool, len(cfg.Nodes))
	queued[cfg.Entry] = true
	for len(work) > 0 {
		if visits++; visits > limit {
			for i := range in {
				in[i] = d.top(in[i])
			}
			return visits, true
		}
		id := work[0]
		work, queued[id] = work[1:], false
		n := cfg.Nodes[id]
		out := d.flow(n)
		for _, succ := range n.Succs {
			if merged, changed := d.merge(in[succ], out(succ), id >= succ, succ); changed {
				in[succ] = merged
				if !queued[succ] {
					work = append(work, succ)
					queued[succ] = true
				}
			}
		}
	}
	return visits, false
}
