package lint

import (
	"sort"

	"prognosticator/internal/lang"
)

// Node is one CFG node: a single statement, or the synthetic entry/exit.
// Compound statements (If, For) contribute one node for their own
// evaluation (condition / bounds-and-test) plus nodes for their nested
// statements.
type Node struct {
	ID int
	// Stmt is nil for the entry and exit nodes.
	Stmt lang.Stmt
	// Pos is the statement's source position (zero if unknown).
	Pos lang.Pos
	// Path is the structural path, e.g. "body[2].then[0]".
	Path string
	// Succs and Preds are edge lists (node IDs), in construction order.
	Succs, Preds []int
	// Heads holds, for each block the statement holds (an If's then- and
	// else-arm, a For's body; see lang.Nested), the ID of the block's first
	// node, or -1 when the block is empty.
	Heads []int

	// Defs lists the locals this node assigns (Assign/Get/SetField dst,
	// For induction variable). Uses lists the locals whose current value
	// this node reads. Both are sorted.
	Defs, Uses []string
}

// CFG is the control-flow graph of one program body.
type CFG struct {
	Prog  *lang.Program
	Nodes []*Node
	Entry int
	Exit  int

	byPath map[string]int
}

// NodeAt returns the ID of the node of the statement at the structural
// path, or false if the path names no statement.
func (c *CFG) NodeAt(path string) (int, bool) {
	id, ok := c.byPath[path]
	return id, ok
}

// BuildCFG constructs the CFG of p. The graph is a faithful rendering of the
// structured control flow: If nodes branch to the heads of both arms (or
// past them when an arm is empty), For nodes test-and-branch to the body
// head and to the loop exit, and body tails edge back to the For node.
func BuildCFG(p *lang.Program) *CFG {
	b := &cfgBuilder{cfg: &CFG{Prog: p, byPath: map[string]int{}}}
	entry := b.newNode(nil, "")
	b.cfg.Entry = entry.ID
	frontier := b.block(p.Root(), []int{entry.ID})
	exit := b.newNode(nil, "")
	b.cfg.Exit = exit.ID
	b.connect(frontier, exit.ID)
	return b.cfg
}

type cfgBuilder struct {
	cfg *CFG
}

func (b *cfgBuilder) newNode(st lang.Stmt, path string) *Node {
	n := &Node{ID: len(b.cfg.Nodes), Stmt: st, Path: path}
	if st != nil {
		n.Pos = st.StmtPos()
		n.Defs, n.Uses = stmtDefs(st), stmtUses(st)
		b.cfg.byPath[path] = n.ID
	}
	b.cfg.Nodes = append(b.cfg.Nodes, n)
	return n
}

func (b *cfgBuilder) connect(from []int, to int) {
	for _, f := range from {
		b.cfg.Nodes[f].Succs = append(b.cfg.Nodes[f].Succs, to)
		b.cfg.Nodes[to].Preds = append(b.cfg.Nodes[to].Preds, f)
	}
}

// block lays out a statement sequence, connecting preds to its head, and
// returns the frontier: the node set from which control leaves the block.
// An empty block returns preds unchanged.
func (b *cfgBuilder) block(blk lang.Block, preds []int) []int {
	frontier := preds
	for i, st := range blk.Stmts {
		n := b.newNode(st, blk.Path(i))
		b.connect(frontier, n.ID)
		// Each nested block hangs off n; control leaves through the union
		// of their frontiers (n itself past an empty arm).
		var out []int
		for _, nb := range lang.Nested(st, n.Path) {
			head := len(b.cfg.Nodes)
			if len(nb.Stmts) == 0 {
				head = -1
			}
			n.Heads = append(n.Heads, head)
			out = append(out, b.block(nb, []int{n.ID})...)
		}
		switch st.(type) {
		case lang.If:
			// With an empty arm the sub-frontier is {n} itself; dedup so the
			// join does not receive duplicate edges from a no-op If.
			frontier = dedupIDs(out)
		case lang.For:
			// Back edge: end of the body re-tests the loop condition. When
			// the body is empty the self-edge still models re-testing.
			b.connect(out, n.ID)
			frontier = []int{n.ID}
		default:
			frontier = []int{n.ID}
		}
	}
	return frontier
}

func dedupIDs(ids []int) []int {
	seen := map[int]bool{}
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// stmtDefs returns the locals the statement assigns.
func stmtDefs(st lang.Stmt) []string {
	switch s := st.(type) {
	case lang.Assign:
		return []string{s.Dst}
	case lang.SetField:
		return []string{s.Dst}
	case lang.Get:
		return []string{s.Dst}
	case lang.For:
		return []string{s.Var}
	default:
		return nil
	}
}

// stmtUses returns the locals whose value the statement reads at its own
// node (not in nested blocks: those have their own nodes). Parameters are
// always defined and are excluded.
func stmtUses(st lang.Stmt) []string {
	var out []string
	if s, ok := st.(lang.SetField); ok {
		// Reading-and-updating: the destination record is read before the
		// field store, so it must already be defined.
		out = append(out, s.Dst)
	}
	for _, e := range lang.Exprs(st) {
		lang.Inspect(e, func(x lang.Expr) bool {
			if l, ok := x.(lang.LocalRef); ok {
				out = append(out, l.Name)
			}
			return true
		})
	}
	return sortDedup(out)
}

func sortDedup(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	seen := map[string]bool{}
	out := names[:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
