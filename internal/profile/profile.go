// Package profile defines transaction profiles — the artifact the symbolic-
// execution analysis produces offline and the deterministic scheduler
// consumes at run time (§III-B of the paper).
//
// A profile is a binary tree. Each node carries the accesses (reads/writes
// with symbolic key expressions) collected between the enclosing path
// condition and the next conditional statement, plus that conditional's
// symbolic condition; leaves carry only accesses. A root-to-leaf path is one
// <PSC, RWS> pair: the conjunction of branch conditions along the path is
// the path-set condition, and the union of access segments is the
// read/write-set. Instantiating the profile with concrete inputs — and,
// for dependent transactions, with pivot values read from the store —
// yields the concrete key-set used to populate the lock table.
package profile

import (
	"fmt"
	"sync"
	"time"

	"prognosticator/internal/sym"
	"prognosticator/internal/value"
)

// Class is the paper's transaction taxonomy (§III-C).
type Class int

// Transaction classes: read-only (ROT), independent (IT: key-set depends
// only on inputs) and dependent (DT: key-set depends on store state).
const (
	ClassROT Class = iota + 1
	ClassIT
	ClassDT
)

// String returns the class abbreviation used in the paper.
func (c Class) String() string {
	switch c {
	case ClassROT:
		return "ROT"
	case ClassIT:
		return "IT"
	case ClassDT:
		return "DT"
	default:
		return "?"
	}
}

// Access is one read or write with a symbolic key.
type Access struct {
	Table string
	Key   []sym.Term
	Write bool
	// Direct marks keys proven derivable from the transaction inputs alone
	// (no pivot variable in any part). The symbolic executor sets it when
	// emitting the access and cross-checks it against the static
	// key-determinism analysis; the engine instantiates direct accesses of
	// pivot-free-traversal profiles without store reads.
	Direct bool
}

// Indirect reports whether the key identity depends on a pivot value.
func (a Access) Indirect() bool {
	for _, k := range a.Key {
		if sym.HasPivot(k) {
			return true
		}
	}
	return false
}

// String renders the access for debugging.
func (a Access) String() string {
	op := "R"
	if a.Write {
		op = "W"
	}
	s := op + " " + a.Table
	for _, k := range a.Key {
		s += "/" + k.String()
	}
	return s
}

// Node is one profile-tree node. Cond == nil marks a leaf.
type Node struct {
	Seg         []Access
	Cond        sym.Term
	True, False *Node

	// seg and cond are Seg and Cond compiled (compile.go), shared with the
	// other nodes of the tree that hold the same; set by the profile's one
	// compile, before its first instantiation reads them.
	seg  *segment
	cond expr
}

// Stats records the cost of the symbolic-execution analysis that produced a
// profile; these are the columns of the paper's Table I.
type Stats struct {
	StatesExplored int
	// TotalStates is the number of states a non-concolic, non-pruning
	// exploration would visit (2^maxDepth); reported analytically when
	// actually exploring it is infeasible, as the paper does for newOrder.
	TotalStates float64
	// Depth is the maximum number of conditional statements observed on a
	// path with optimizations on; DepthMax without them.
	Depth, DepthMax int
	UniqueKeySets   int
	IndirectKeys    int
	MemoryBytes     uint64
	Duration        time.Duration
	// Truncated marks an analysis stopped early by the state budget; the
	// profile is then incomplete (measurement use only).
	Truncated bool
	// Unoptimized analysis cost (taint + pruning disabled); zero when the
	// unoptimized run was skipped. UnoptTruncated marks the unoptimized
	// comparison run as budget-truncated, in which case callers report
	// extrapolated cost, as the paper does for its infeasible runs.
	MemoryBytesUnopt uint64
	DurationUnopt    time.Duration
	StatesUnopt      int
	UnoptTruncated   bool
}

// Profile is the complete offline analysis result for one transaction type.
// The tree is immutable once the profile is in use: Class and
// PivotFreeTraversal are facts of the tree, computed by one walk the first
// time either is asked and kept.
type Profile struct {
	TxName string
	Root   *Node
	Stats  Stats
	// Params is the order of the args the positional entry points
	// (InstantiateArgs, InstantiateSplitArgs) read: the program's parameter
	// order (lang.Program.ParamNames), which engine.NewRegistry sets, so
	// that a request bound once serves the program and its profile. Nil
	// means the names of the inputs the tree reads, sorted. It must be set,
	// if at all, before the first instantiation, which compiles the profile
	// against it.
	Params []string

	factsOnce sync.Once
	facts     walker
	codeOnce  sync.Once
	code      *code
}

// treeFacts walks the tree once per profile. Every access costs a
// sym.HasPivot, far too much to repeat per request.
func (p *Profile) treeFacts() *walker {
	p.factsOnce.Do(func() { p.facts.walk(p.Root) })
	return &p.facts
}

// Class classifies the transaction: ROT if no path writes; IT if all key
// expressions and all conditions are direct (input-only); DT otherwise.
func (p *Profile) Class() Class {
	w := p.treeFacts()
	switch {
	case !w.writes:
		return ClassROT
	case w.indirect:
		return ClassDT
	default:
		return ClassIT
	}
}

// PivotFreeTraversal reports whether the tree can be traversed using inputs
// alone (no condition depends on a pivot). Such DT profiles allow clients to
// predict the direct part of the key-set without touching the store —
// the optimization sketched at the end of §III-C.
func (p *Profile) PivotFreeTraversal() bool { return !p.treeFacts().condPivot }

// NumLeaves returns the number of <PSC, RWS> pairs in the profile.
func (p *Profile) NumLeaves() int { return countLeaves(p.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Cond == nil {
		return 1
	}
	return countLeaves(n.True) + countLeaves(n.False)
}

type walker struct {
	writes    bool
	indirect  bool
	condPivot bool
}

func (w *walker) walk(n *Node) {
	if n == nil {
		return
	}
	for _, a := range n.Seg {
		if a.Write {
			w.writes = true
		}
		if a.Indirect() {
			w.indirect = true
		}
	}
	if n.Cond != nil {
		if sym.HasPivot(n.Cond) {
			w.indirect = true
			w.condPivot = true
		}
		w.walk(n.True)
		w.walk(n.False)
	}
}

// PivotReader supplies pivot values during key-set preparation. Implemented
// by store read views. found is false when the item does not exist.
type PivotReader interface {
	ReadPivot(k value.Key, field string) (v value.Value, found bool)
}

// PivotObservation records one pivot read made while preparing a key-set.
// At execution time the engine re-reads the pivot and aborts the transaction
// if the value changed (§III-C).
type PivotObservation struct {
	Key   value.Key
	Field string
	Value value.Value
}

// KeySet is the concrete result of instantiating a profile.
type KeySet struct {
	Reads  []value.Key
	Writes []value.Key
	// Pivots lists the pivot observations made during preparation, in
	// deterministic order: those the path's conditions needed, then those
	// the keys needed, each in first-use order.
	Pivots []PivotObservation
	// DirectReads and DirectWrites count the leading entries of Reads and
	// Writes that were instantiated from the inputs alone. InstantiateSplit
	// and InstantiateDirect set them; Instantiate keeps program order and
	// leaves them zero.
	DirectReads, DirectWrites int
}

// Keys returns the union of reads and writes, deduplicated, in
// deterministic order (reads first).
func (ks *KeySet) Keys() []value.Key {
	seen := make(map[value.Encoded]bool, len(ks.Reads)+len(ks.Writes))
	out := make([]value.Key, 0, len(ks.Reads)+len(ks.Writes))
	for _, k := range append(append([]value.Key{}, ks.Reads...), ks.Writes...) {
		if e := k.Encode(); !seen[e] {
			seen[e] = true
			out = append(out, k)
		}
	}
	return out
}

// Instantiate traverses the profile with concrete inputs, resolving pivot
// variables through pr, and returns the concrete key-set of this invocation
// in program order. For IT/ROT profiles pr may be nil. Missing pivot items
// read as integer zero fields, matching the concrete interpreter's semantics
// for absent records. It binds the inputs and runs InstantiateArgs.
func (p *Profile) Instantiate(inputs map[string]value.Value, pr PivotReader) (*KeySet, error) {
	return p.instantiate(p.bind(inputs), pr, selection{direct: true, indirect: true}, nil, nil)
}

// InstantiateDirect traverses the profile with inputs alone and returns the
// key-set of the accesses marked Direct — the part a client can predict
// without touching the store (§III-C). It requires a pivot-free traversal:
// a pivot in any path condition is an error, never a silent store read.
func (p *Profile) InstantiateDirect(inputs map[string]value.Value) (*KeySet, error) {
	if !p.PivotFreeTraversal() {
		return nil, fmt.Errorf("profile %s: InstantiateDirect on a profile with pivot-dependent conditions", p.TxName)
	}
	return p.instantiate(p.bind(inputs), nil, selection{direct: true, split: true}, nil, nil)
}

// InstantiateSplit is Instantiate for a profile with a pivot-free traversal,
// laid out for the engine: the accesses marked Direct come first in Reads
// and in Writes (DirectReads and DirectWrites of them), the pivot-dependent
// ones after, each group in program order. As sets of keys, and in its pivot
// observations, the result equals Instantiate's: direct accesses never read
// pivots. A non-nil direct is the direct part already known for these inputs
// — InstantiateDirect's result, or an earlier result's direct prefix — and is
// copied in instead of being evaluated again, so a repeated preparation
// pays only for the pivot-dependent accesses.
func (p *Profile) InstantiateSplit(inputs map[string]value.Value, pr PivotReader, direct *KeySet) (*KeySet, error) {
	if !p.PivotFreeTraversal() {
		return nil, fmt.Errorf("profile %s: InstantiateSplit on a profile with pivot-dependent conditions", p.TxName)
	}
	return p.instantiate(p.bind(inputs), pr, selection{direct: direct == nil, indirect: true, split: true}, direct, nil)
}

// InstantiateArgs is Instantiate on inputs already bound to positions:
// args[i] is the value of the i-th name of Params (lang.Program.Bind lays a
// request out so), and an invalid Value is a missing input. A non-nil into
// is an earlier result of the same call for the same args, which the call
// may reuse: when the new path has as many reads and as many writes, its
// keys and pivots are written into into's arrays and into is returned. So
// nothing may still hold into's arrays, and into must not be used after an
// error.
func (p *Profile) InstantiateArgs(args []value.Value, pr PivotReader, into *KeySet) (*KeySet, error) {
	return p.instantiate(args, pr, selection{direct: true, indirect: true}, nil, into)
}

// InstantiateSplitArgs is InstantiateSplit on bound args (InstantiateArgs).
// A non-nil into is an earlier InstantiateSplitArgs result for the same
// args: its direct part is taken as it is — in place, when into's arrays
// are reused — and only the pivot-dependent accesses are evaluated again.
func (p *Profile) InstantiateSplitArgs(args []value.Value, pr PivotReader, into *KeySet) (*KeySet, error) {
	if !p.PivotFreeTraversal() {
		return nil, fmt.Errorf("profile %s: InstantiateSplit on a profile with pivot-dependent conditions", p.TxName)
	}
	sel := selection{direct: into == nil, indirect: true, split: true}
	return p.instantiate(args, pr, sel, into, into)
}

// bind lays inputs out as the compiled code reads them: the one place the
// package reads an input map.
func (p *Profile) bind(inputs map[string]value.Value) []value.Value {
	params := p.compiled().params
	args := make([]value.Value, len(params))
	for i, name := range params {
		args[i] = inputs[name]
	}
	return args
}

// selection says which accesses of the path an instantiation evaluates, and
// whether the direct ones are placed ahead of the others.
type selection struct {
	direct, indirect bool
	split            bool
}

// includes reports whether accesses of the kind are evaluated.
func (s selection) includes(kind int) bool {
	if kind&1 == 0 {
		return s.direct
	}
	return s.indirect
}

// group is the region of the key-set an access of the kind goes to: direct
// reads, other reads, direct writes, other writes — the direct regions
// empty unless the layout is split.
func (s selection) group(kind int) int {
	if s.split {
		return kind
	}
	return kind | 1
}

// instantiate runs the compiled profile: it goes down the path the args
// (and, for pivot-dependent conditions, pivot reads) select, evaluating the
// conditions and counting the selected accesses, then along the recorded
// path to encode their keys, all into one buffer that becomes one string:
// each key is a substring of it. The result is then the KeySet, its key
// array and that string, besides the pivot observations; into saves the
// first two when its arrays fit, and the observations' array when it is
// as large as the slots. direct supplies the direct regions (a split
// layout whose direct accesses are not selected).
func (p *Profile) instantiate(args []value.Value, pr PivotReader, sel selection, direct, into *KeySet) (*KeySet, error) {
	c := p.compiled()
	if len(args) != len(c.params) {
		return nil, fmt.Errorf("profile %s: %d arguments for %d inputs", p.TxName, len(args), len(c.params))
	}
	in := newInst(c, args, pr)
	defer in.release()
	if into != nil && len(c.pivots) > 0 && cap(into.Pivots) >= len(c.pivots) {
		in.obs = into.Pivots[:0]
	}
	var dr, dw []value.Key // the direct regions, as given
	if direct != nil {
		dr, dw = direct.Reads, direct.Writes
		if direct == into {
			dr, dw = dr[:into.DirectReads], dw[:into.DirectWrites]
		}
	}
	var pathBuf [32]*Node
	path := pathBuf[:0]
	n := [4]int{len(dr), 0, len(dw), 0} // keys per region
	for nd := p.Root; nd != nil; {
		path = append(path, nd)
		for k, cnt := range nd.seg.count {
			if cnt > 0 && sel.includes(k) {
				n[sel.group(k)] += cnt
			}
		}
		if nd.Cond == nil {
			break
		}
		cv, err := nd.cond(in)
		if err != nil {
			return nil, fmt.Errorf("profile %s: condition %s: %w", p.TxName, nd.Cond, err)
		}
		b, ok := cv.AsBool()
		if !ok {
			return nil, fmt.Errorf("profile %s: condition %s evaluated to %s", p.TxName, nd.Cond, cv.Kind())
		}
		if b {
			nd = nd.True
		} else {
			nd = nd.False
		}
	}

	// Encode the selected keys, in path order, recording where each ends.
	var encBuf [2048]byte
	var endBuf [256]int32
	enc, ends := encBuf[:0], endBuf[:0]
	for _, nd := range path {
		for i := range nd.seg.accesses {
			a := &nd.seg.accesses[i]
			if !sel.includes(a.kind) {
				continue
			}
			var partBuf [8]value.Value
			parts, err := in.parts(partBuf[:0], a.key)
			if err != nil {
				return nil, fmt.Errorf("profile %s: %w", p.TxName, err)
			}
			enc = value.AppendKey(enc, a.table, parts)
			ends = append(ends, int32(len(enc)))
		}
	}

	nr, nw := n[0]+n[1], n[2]+n[3]
	ks := into
	if ks == nil {
		ks = &KeySet{}
	}
	if into == nil || len(into.Reads) != nr || len(into.Writes) != nw || into.DirectReads != n[0] || into.DirectWrites != n[2] {
		var keys []value.Key
		if nr+nw > 0 {
			keys = make([]value.Key, nr+nw)
		}
		reads, writes := keys[:nr:nr], keys[nr:]
		copy(reads, dr)
		copy(writes, dw)
		ks.Reads, ks.Writes = reads, writes
	}
	ks.DirectReads, ks.DirectWrites = n[0], n[2]
	all := string(enc)
	at := [4]int{0, n[0], 0, n[2]} // where the next key of each region goes
	from, j := int32(0), 0
	for _, nd := range path {
		for i := range nd.seg.accesses {
			a := &nd.seg.accesses[i]
			if !sel.includes(a.kind) {
				continue
			}
			k := value.KeyOfEncoded(value.Encoded(all[from:ends[j]]))
			from, j = ends[j], j+1
			g := sel.group(a.kind)
			if g < 2 {
				ks.Reads[at[g]] = k
			} else {
				ks.Writes[at[g]] = k
			}
			at[g]++
		}
	}
	ks.Pivots = in.obs
	return ks, nil
}
