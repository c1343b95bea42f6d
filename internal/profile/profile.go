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

	factsOnce sync.Once
	facts     walker
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

// Direct returns the input-only prefix of a split key-set, sharing its keys:
// what InstantiateSplit takes back when the same request is prepared again.
func (ks *KeySet) Direct() *KeySet {
	dr, dw := ks.DirectReads, ks.DirectWrites
	return &KeySet{Reads: ks.Reads[:dr:dr], Writes: ks.Writes[:dw:dw], DirectReads: dr, DirectWrites: dw}
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
// for absent records.
func (p *Profile) Instantiate(inputs map[string]value.Value, pr PivotReader) (*KeySet, error) {
	return p.instantiate(inputs, pr, selection{direct: true, indirect: true}, nil)
}

// InstantiateDirect traverses the profile with inputs alone and returns the
// key-set of the accesses marked Direct — the part a client can predict
// without touching the store (§III-C). It requires a pivot-free traversal:
// a pivot in any path condition is an error, never a silent store read.
func (p *Profile) InstantiateDirect(inputs map[string]value.Value) (*KeySet, error) {
	if !p.PivotFreeTraversal() {
		return nil, fmt.Errorf("profile %s: InstantiateDirect on a profile with pivot-dependent conditions", p.TxName)
	}
	return p.instantiate(inputs, nil, selection{direct: true, split: true}, nil)
}

// InstantiateSplit is Instantiate for a profile with a pivot-free traversal,
// laid out for the engine: the accesses marked Direct come first in Reads
// and in Writes (DirectReads and DirectWrites of them), the pivot-dependent
// ones after, each group in program order. As sets of keys, and in its pivot
// observations, the result equals Instantiate's: direct accesses never read
// pivots. A non-nil direct is the direct part already known for these inputs
// — InstantiateDirect's result, or an earlier result's Direct() — and is
// copied in instead of being evaluated again, so a repeated preparation
// pays only for the pivot-dependent accesses.
func (p *Profile) InstantiateSplit(inputs map[string]value.Value, pr PivotReader, direct *KeySet) (*KeySet, error) {
	if !p.PivotFreeTraversal() {
		return nil, fmt.Errorf("profile %s: InstantiateSplit on a profile with pivot-dependent conditions", p.TxName)
	}
	return p.instantiate(inputs, pr, selection{direct: direct == nil, indirect: true, split: true}, direct)
}

// selection says which accesses of the path an instantiation evaluates, and
// whether the direct ones are placed ahead of the others.
type selection struct {
	direct, indirect bool
	split            bool
}

func (s selection) includes(a *Access) bool {
	if a.Direct {
		return s.direct
	}
	return s.indirect
}

// group is the region of the key-set's array an access goes to. Reads and
// Writes share the array, in this order: direct reads, other reads, direct
// writes, other writes — the direct regions empty unless the layout is split.
func (s selection) group(a *Access) int {
	g := 0
	if a.Write {
		g = 2
	}
	if !(s.split && a.Direct) {
		g++
	}
	return g
}

// instantiate walks the root-to-leaf path selected by the inputs (and, for
// pivot-dependent conditions, by pivot reads) and evaluates the selected
// accesses on it. It goes down the path once to evaluate the conditions and
// size the result, then along the recorded path to fill it, so the key-set
// is two allocations however long the path, the KeySet and its keys, besides
// the keys' encodings.
func (p *Profile) instantiate(inputs map[string]value.Value, pr PivotReader, sel selection, direct *KeySet) (*KeySet, error) {
	inst := instantiator{inputs: inputs, pr: pr}
	var pathBuf [32]*Node
	path := pathBuf[:0]
	var n [4]int // selected accesses per group
	if direct != nil {
		n[0], n[2] = len(direct.Reads), len(direct.Writes)
	}
	for nd := p.Root; nd != nil; {
		path = append(path, nd)
		for i := range nd.Seg {
			if a := &nd.Seg[i]; sel.includes(a) {
				n[sel.group(a)]++
			}
		}
		if nd.Cond == nil {
			break
		}
		cv, err := inst.eval(nd.Cond)
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

	// at[g] is where the next key of group g goes.
	at := [4]int{0, n[0], n[0] + n[1], n[0] + n[1] + n[2]}
	ks := &KeySet{DirectReads: n[0], DirectWrites: n[2]}
	var keys []value.Key
	if total := at[3] + n[3]; total > 0 {
		keys = make([]value.Key, total)
		ks.Reads, ks.Writes = keys[:at[2]:at[2]], keys[at[2]:]
	}
	if direct != nil {
		copy(ks.Reads, direct.Reads)
		copy(ks.Writes, direct.Writes)
	}
	for _, nd := range path {
		for i := range nd.Seg {
			a := &nd.Seg[i]
			if !sel.includes(a) {
				continue
			}
			k, err := inst.keyOf(a.Table, a.Key)
			if err != nil {
				return nil, fmt.Errorf("profile %s: %w", p.TxName, err)
			}
			g := sel.group(a)
			keys[at[g]] = k
			at[g]++
		}
	}
	ks.Pivots = inst.observations
	return ks, nil
}

type instantiator struct {
	inputs map[string]value.Value
	pr     PivotReader
	// observations are the pivot reads so far, in first-use order; a pivot
	// variable read again takes its value from here. A path reads a handful
	// of pivots, so a scan beats a map.
	observations []PivotObservation
	pivotVars    []string // pivotVars[i] is the variable observations[i] bound
}

// keyOf evaluates a key's parts into a buffer on the stack: the key keeps
// only their encoding.
func (in *instantiator) keyOf(table string, terms []sym.Term) (value.Key, error) {
	var buf [8]value.Value
	parts := buf[:0]
	for _, kt := range terms {
		v, err := in.eval(kt)
		if err != nil {
			return value.Key{}, err
		}
		parts = append(parts, v)
	}
	return value.KeyOf(table, parts), nil
}

func (in *instantiator) eval(t sym.Term) (value.Value, error) {
	return sym.Eval(t, in.lookup)
}

// lookup resolves input variables from the concrete inputs and pivot
// variables through the PivotReader, caching and recording each pivot read.
func (in *instantiator) lookup(v *sym.Var) (value.Value, bool) {
	if v.Pivot != nil {
		for i, name := range in.pivotVars {
			if name == v.Name {
				return in.observations[i].Value, true
			}
		}
		if in.pr == nil {
			return value.Value{}, false
		}
		k, err := in.keyOf(v.Pivot.Table, v.Pivot.Key)
		if err != nil {
			return value.Value{}, false
		}
		pv, found := in.pr.ReadPivot(k, v.Pivot.Field)
		if !found {
			pv = value.Int(0)
		}
		in.pivotVars = append(in.pivotVars, v.Name)
		in.observations = append(in.observations, PivotObservation{Key: k, Field: v.Pivot.Field, Value: pv})
		return pv, true
	}
	if v.List != "" {
		lst, ok := in.inputs[v.List]
		if !ok {
			return value.Value{}, false
		}
		return lst.Index(v.Idx)
	}
	val, ok := in.inputs[v.Name]
	return val, ok
}
