package profile

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"prognosticator/internal/lang"
	"prognosticator/internal/sym"
	"prognosticator/internal/value"
)

// code is a profile compiled for instantiation, once per profile, the first
// time it is instantiated: every input variable becomes a position in the
// args, every pivot variable a slot in an array whose size is fixed here,
// and every condition and key term a closure. Nodes whose accesses render
// alike share one compiled segment, and conditions and terms that render
// alike share one closure, so a tree that repeats a few segments over
// thousands of nodes (TPC-C's delivery) compiles to the code of those few.
// The compiled forms hang off the nodes (Node.seg, Node.cond), which is why
// a tree belongs to one profile.
type code struct {
	// params is the order the args are in: Profile.Params, or else the
	// names of the inputs the tree reads, sorted.
	params []string
	pivots []pivotVar
}

// pivotVar is one pivot variable's slot: the item and field it reads.
type pivotVar struct {
	name         string // the variable's name, for a missing binding
	table, field string
	key          []expr
}

// expr is one compiled term.
type expr func(*inst) (value.Value, error)

// segment is one node's accesses, compiled.
type segment struct {
	accesses []access
	count    [4]int // accesses of each kind
}

// access is one compiled access. Its kind is its region of a split
// key-set: bit 1 set for a write, bit 0 set unless it is Direct.
type access struct {
	table string
	key   []expr
	kind  int
}

func accessKind(a *Access) int {
	k := 0
	if a.Write {
		k = 2
	}
	if !a.Direct {
		k++
	}
	return k
}

// compiled returns the profile's code, compiling it on first use.
func (p *Profile) compiled() *code {
	p.codeOnce.Do(func() { p.code = compile(p) })
	return p.code
}

// compiler holds what compiling one profile interns; none of it outlives
// compile.
type compiler struct {
	code  *code
	pos   map[string]int // input name → position in the args
	slots map[string]int // pivot variable name → slot
	terms map[string]expr
	segs  map[string]*segment
	sb    strings.Builder
}

func compile(p *Profile) *code {
	c := &compiler{
		code:  &code{params: p.Params},
		pos:   map[string]int{},
		slots: map[string]int{},
		terms: map[string]expr{},
		segs:  map[string]*segment{},
	}
	if c.code.params == nil {
		c.code.params = treeInputs(p.Root)
	}
	for i, name := range c.code.params {
		if _, dup := c.pos[name]; !dup {
			c.pos[name] = i
		}
	}
	for stack := []*Node{p.Root}; len(stack) > 0; {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd == nil {
			continue
		}
		nd.seg = c.segment(nd.Seg)
		if nd.Cond != nil {
			nd.cond = c.term(nd.Cond)
			stack = append(stack, nd.False, nd.True)
		}
	}
	return c.code
}

// treeInputs returns the names of the inputs a tree reads, sorted: the
// args order of a profile that was not given its program's.
func treeInputs(root *Node) []string {
	var vars []*sym.Var
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		for _, a := range n.Seg {
			for _, k := range a.Key {
				vars = sym.Vars(k, vars)
			}
		}
		if n.Cond != nil {
			vars = sym.Vars(n.Cond, vars)
			walk(n.True)
			walk(n.False)
		}
	}
	walk(root)
	var names []string
	for _, v := range vars {
		switch {
		case v.Pivot != nil:
		case v.List != "":
			names = append(names, v.List)
		default:
			names = append(names, v.Name)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// segment returns the compiled form of a node's accesses, shared with every
// earlier node whose accesses render the same.
func (c *compiler) segment(seg []Access) *segment {
	c.sb.Reset()
	for i := range seg {
		a := &seg[i]
		fmt.Fprintf(&c.sb, "%d %s", accessKind(a), a.Table)
		for _, k := range a.Key {
			c.sb.WriteByte('/')
			c.sb.WriteString(k.String())
		}
		c.sb.WriteByte('\n')
	}
	id := c.sb.String()
	if s, ok := c.segs[id]; ok {
		return s
	}
	s := &segment{accesses: make([]access, len(seg))}
	for i := range seg {
		a := &seg[i]
		k := accessKind(a)
		s.accesses[i] = access{table: a.Table, key: c.keyTerms(a.Key), kind: k}
		s.count[k]++
	}
	c.segs[id] = s
	return s
}

func (c *compiler) keyTerms(ts []sym.Term) []expr {
	out := make([]expr, len(ts))
	for i, t := range ts {
		out[i] = c.term(t)
	}
	return out
}

// term compiles t to what sym.Eval computes of it, with the same errors,
// shared with every term that renders the same.
func (c *compiler) term(t sym.Term) expr {
	id := t.String()
	if e, ok := c.terms[id]; ok {
		return e
	}
	var e expr
	switch x := t.(type) {
	case sym.Const:
		v := x.V
		e = func(*inst) (value.Value, error) { return v, nil }
	case *sym.Var:
		e = c.variable(x)
	case sym.Bin:
		l, r, op := c.term(x.L), c.term(x.R), x.Op
		e = func(in *inst) (value.Value, error) {
			lv, err := l(in)
			if err != nil {
				return value.Value{}, err
			}
			rv, err := r(in)
			if err != nil {
				return value.Value{}, err
			}
			v, err := lang.EvalBin(op, lv, rv)
			if err != nil {
				return value.Value{}, fmt.Errorf("sym: eval %s: %w", t.String(), err)
			}
			return v, nil
		}
	case sym.Not:
		inner := c.term(x.T)
		e = func(in *inst) (value.Value, error) {
			v, err := inner(in)
			if err != nil {
				return value.Value{}, err
			}
			b, ok := v.AsBool()
			if !ok {
				return value.Value{}, fmt.Errorf("sym: ! on %s", v.Kind())
			}
			return value.Bool(!b), nil
		}
	default:
		e = func(*inst) (value.Value, error) { return value.Value{}, fmt.Errorf("sym: unknown term %T", t) }
	}
	c.terms[id] = e
	return e
}

// variable compiles an input to a read of its position, a list element to
// an index into its list's, and a pivot to its slot.
func (c *compiler) variable(v *sym.Var) expr {
	name := v.Name
	if v.Pivot != nil {
		slot, ok := c.slots[name]
		if !ok {
			slot = len(c.code.pivots)
			c.slots[name] = slot
			c.code.pivots = append(c.code.pivots, pivotVar{name: name, table: v.Pivot.Table, field: v.Pivot.Field})
			// The key is compiled after the slot is taken: it may hold
			// pivots of its own, which take the slots after it.
			key := c.keyTerms(v.Pivot.Key)
			c.code.pivots[slot].key = key
		}
		return func(in *inst) (value.Value, error) { return in.pivot(slot) }
	}
	param := name
	if v.List != "" {
		param = v.List
	}
	pos, ok := c.pos[param]
	if !ok {
		return func(*inst) (value.Value, error) { return noBinding(name) }
	}
	if v.List != "" {
		idx := v.Idx
		return func(in *inst) (value.Value, error) {
			if el, ok := in.args[pos].Index(idx); ok {
				return el, nil
			}
			return noBinding(name)
		}
	}
	return func(in *inst) (value.Value, error) {
		if v := in.args[pos]; v.IsValid() {
			return v, nil
		}
		return noBinding(name)
	}
}

func noBinding(name string) (value.Value, error) {
	return value.Value{}, fmt.Errorf("sym: no binding for %s", name)
}

// inst is one instantiation in progress.
type inst struct {
	code *code
	args []value.Value
	pr   PivotReader
	// obs are the pivot reads so far, in first-use order; seen[slot] is
	// the position in obs + 1 of the slot's read, 0 until it is read.
	obs  []PivotObservation
	seen []int32
}

// insts keeps the state of finished instantiations for the next: the
// closures take it by pointer, so a fresh one would be an allocation per
// instantiation, as large as a small IT's keys.
var insts = sync.Pool{New: func() any { return new(inst) }}

func newInst(c *code, args []value.Value, pr PivotReader) *inst {
	in := insts.Get().(*inst)
	in.code, in.args, in.pr = c, args, pr
	if n := len(c.pivots); cap(in.seen) >= n {
		in.seen = in.seen[:n]
		clear(in.seen)
	} else {
		in.seen = make([]int32, n)
	}
	return in
}

// release returns in to insts, keeping nothing the instantiation used.
func (in *inst) release() {
	in.code, in.args, in.pr, in.obs = nil, nil, nil, nil
	insts.Put(in)
}

// pivot returns the value of the pivot in slot, reading it the first time.
// A pivot that cannot be read — no reader, or a key that does not
// evaluate — has no binding.
func (in *inst) pivot(slot int) (value.Value, error) {
	if i := in.seen[slot]; i != 0 {
		return in.obs[i-1].Value, nil
	}
	pv := &in.code.pivots[slot]
	if in.pr == nil {
		return noBinding(pv.name)
	}
	var buf [8]value.Value
	parts, err := in.parts(buf[:0], pv.key)
	if err != nil {
		return noBinding(pv.name)
	}
	k := value.KeyOf(pv.table, parts)
	v, found := in.pr.ReadPivot(k, pv.field)
	if !found {
		v = value.Int(0)
	}
	if in.obs == nil {
		in.obs = make([]PivotObservation, 0, len(in.code.pivots))
	}
	in.obs = append(in.obs, PivotObservation{Key: k, Field: pv.field, Value: v})
	in.seen[slot] = int32(len(in.obs))
	return v, nil
}

// parts appends the values of a key's terms to dst.
func (in *inst) parts(dst []value.Value, key []expr) ([]value.Value, error) {
	for _, e := range key {
		v, err := e(in)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
