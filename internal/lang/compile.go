package lang

import (
	"fmt"

	"prognosticator/internal/value"
)

// code is a Program lowered for execution, once per program: every
// parameter and local has a slot in the frame's one slot array, every
// statement and expression is a closure over that array, and every
// statement's structural path is computed here, so a traced run executes
// the same code as an untraced one.
type code struct {
	// params are the inputs: the declared parameters first (declared of
	// them, duplicates dropped), then any name a ParamRef reads without its
	// being declared.
	params   []named
	declared int
	locals   []named
	nslots   int
	body     []step
}

// named is a parameter or local and its slot.
type named struct {
	name string
	slot int
}

// step is one compiled statement and its structural path.
type step struct {
	path string
	run  func(*Frame) error
}

// eval is one compiled expression.
type eval func(*Frame) (value.Value, error)

// slotState is what a slot holds. A local is owned when the record in it
// was built during this run — by a record literal, or by the copy the first
// SetField on a record made — and has not been handed on since: only then
// may SetField write into it in place.
type slotState uint8

const (
	unset slotState = iota
	set
	owned
)

// lower returns the program's code, compiling it on first use. A program
// must not change once it has run.
func (p *Program) lower() *code {
	p.lowered.once.Do(func() { p.lowered.code = compile(p) })
	return p.lowered.code
}

type compiler struct {
	name           string
	params, locals map[string]int
	code           *code
}

func compile(p *Program) *code {
	c := &compiler{name: p.Name, params: map[string]int{}, locals: map[string]int{}, code: &code{}}
	for _, prm := range p.Params {
		c.param(prm.Name)
	}
	c.code.declared = len(c.code.params)
	c.code.body = c.block(p.Root())
	return c.code
}

// param and local return the slot of a parameter or local, giving it the
// next free one the first time the name is seen.
func (c *compiler) param(name string) int { return c.slot(c.params, &c.code.params, name) }
func (c *compiler) local(name string) int { return c.slot(c.locals, &c.code.locals, name) }

func (c *compiler) slot(slots map[string]int, names *[]named, name string) int {
	i, ok := slots[name]
	if !ok {
		i = c.code.nslots
		c.code.nslots++
		slots[name] = i
		*names = append(*names, named{name, i})
	}
	return i
}

func (c *compiler) block(b Block) []step {
	steps := make([]step, len(b.Stmts))
	for i, st := range b.Stmts {
		path := b.Path(i)
		steps[i] = step{path: path, run: c.stmt(st, path)}
	}
	return steps
}

func (c *compiler) stmt(st Stmt, path string) func(*Frame) error {
	name := c.name
	switch s := st.(type) {
	case Assign:
		dst, e := c.local(s.Dst), c.value(s.E)
		state := set
		if _, ok := s.E.(Rec); ok {
			state = owned
		}
		return func(f *Frame) error {
			v, err := e(f)
			if err != nil {
				return err
			}
			f.slots[dst], f.state[dst] = v, state
			return nil
		}
	case SetField:
		dst, field, e := c.local(s.Dst), s.Field, c.value(s.E)
		return func(f *Frame) error {
			if f.state[dst] == unset {
				return fmt.Errorf("lang: %s: SetField on undefined local %q", name, s.Dst)
			}
			v, err := e(f)
			if err != nil {
				return err
			}
			// Evaluating e may have handed the record on (SetField(x, f,
			// L(x))), so ownership is read only now.
			if f.state[dst] == owned && f.slots[dst].SetInPlace(field, v) {
				return nil
			}
			f.slots[dst], f.state[dst] = f.slots[dst].WithField(field, v), owned
			return nil
		}
	case Get:
		dst, key := c.local(s.Dst), c.key(s.Table, s.Key)
		return func(f *Frame) error {
			k, err := key.build(f)
			if err != nil {
				return err
			}
			f.res.Reads = append(f.res.Reads, k)
			v, ok := f.kv.Get(k)
			if !ok {
				v = value.Record(nil)
			}
			f.slots[dst], f.state[dst] = v, set
			return nil
		}
	case Put:
		key, val := c.key(s.Table, s.Key), c.value(s.Val)
		return func(f *Frame) error {
			k, err := key.build(f)
			if err != nil {
				return err
			}
			v, err := val(f)
			if err != nil {
				return err
			}
			f.res.Writes = append(f.res.Writes, k)
			f.kv.Put(k, v)
			return nil
		}
	case Del:
		key := c.key(s.Table, s.Key)
		return func(f *Frame) error {
			k, err := key.build(f)
			if err != nil {
				return err
			}
			f.res.Writes = append(f.res.Writes, k)
			f.kv.Delete(k)
			return nil
		}
	case If:
		cond := c.expr(s.Cond)
		arms := Nested(st, path)
		then, els := c.block(arms[0]), c.block(arms[1])
		return func(f *Frame) error {
			cv, err := cond(f)
			if err != nil {
				return err
			}
			b, ok := cv.AsBool()
			if !ok {
				return fmt.Errorf("lang: %s: if condition is %s, want bool", name, cv.Kind())
			}
			if b {
				return f.block(then)
			}
			return f.block(els)
		}
	case For:
		v, from, to := c.local(s.Var), c.integer(s.From), c.integer(s.To)
		body := c.block(Nested(st, path)[0])
		return func(f *Frame) error {
			lo, err := from(f)
			if err != nil {
				return err
			}
			hi, err := to(f)
			if err != nil {
				return err
			}
			// The difference is taken in uint64: as int64, hi-lo wraps
			// negative when the bounds lie far apart (lo near MinInt64)
			// and the check would wave through some 2^63 iterations.
			if hi > lo && uint64(hi)-uint64(lo) > MaxLoopIterations {
				return fmt.Errorf("lang: %s: loop %q exceeds %d iterations", name, s.Var, MaxLoopIterations)
			}
			for i := lo; i < hi; i++ {
				f.slots[v], f.state[v] = value.Int(i), set
				if err := f.block(body); err != nil {
					return err
				}
			}
			return nil
		}
	case Emit:
		out, e := s.Name, c.value(s.E)
		return func(f *Frame) error {
			v, err := e(f)
			if err != nil {
				return err
			}
			f.res.Emitted[out] = v
			return nil
		}
	default:
		return func(*Frame) error { return fmt.Errorf("lang: %s: unknown statement %T", name, st) }
	}
}

// keyExpr is a compiled (table, parts...) key expression.
type keyExpr struct {
	table string
	parts []eval
}

func (c *compiler) key(table string, parts []Expr) *keyExpr {
	k := &keyExpr{table: table, parts: make([]eval, len(parts))}
	for i, e := range parts {
		k.parts[i] = c.expr(e)
	}
	return k
}

// build evaluates the parts into a buffer on the stack, which the key's
// encoding is all that is kept of.
func (k *keyExpr) build(f *Frame) (value.Key, error) {
	var buf [8]value.Value
	vals := buf[:0]
	for _, e := range k.parts {
		v, err := e(f)
		if err != nil {
			return value.Key{}, err
		}
		vals = append(vals, v)
	}
	return value.KeyOf(k.table, vals), nil
}

func (c *compiler) integer(e Expr) func(*Frame) (int64, error) {
	ev, name := c.expr(e), c.name
	return func(f *Frame) (int64, error) {
		v, err := ev(f)
		if err != nil {
			return 0, err
		}
		i, ok := v.AsInt()
		if !ok {
			return 0, fmt.Errorf("lang: %s: expected int, got %s", name, v.Kind())
		}
		return i, nil
	}
}

// value compiles an expression whose result is kept — assigned, written,
// emitted or made a field of a record. A local read whole here hands its
// record on: the frame no longer owns it, and a later SetField copies.
func (c *compiler) value(e Expr) eval {
	if x, ok := e.(LocalRef); ok {
		return c.localRef(x.Name, true)
	}
	return c.expr(e)
}

// localRef reads a local; take gives up the frame's ownership of it.
func (c *compiler) localRef(local string, take bool) eval {
	i, name := c.local(local), c.name
	if take {
		return func(f *Frame) (value.Value, error) {
			if f.state[i] == unset {
				return value.Value{}, fmt.Errorf("lang: %s: undefined local %q", name, local)
			}
			f.state[i] = set
			return f.slots[i], nil
		}
	}
	return func(f *Frame) (value.Value, error) {
		if f.state[i] == unset {
			return value.Value{}, fmt.Errorf("lang: %s: undefined local %q", name, local)
		}
		return f.slots[i], nil
	}
}

// expr compiles an expression whose result is consumed where it is computed:
// an operand, a condition, a loop bound, a key part, an index.
func (c *compiler) expr(e Expr) eval {
	name := c.name
	switch x := e.(type) {
	case Const:
		v := x.V
		return func(*Frame) (value.Value, error) { return v, nil }
	case ParamRef:
		i, param := c.param(x.Name), x.Name
		return func(f *Frame) (value.Value, error) {
			if f.state[i] == unset {
				return value.Value{}, fmt.Errorf("lang: %s: missing input %q", name, param)
			}
			return f.slots[i], nil
		}
	case LocalRef:
		return c.localRef(x.Name, false)
	case Bin:
		l, r, op := c.expr(x.L), c.expr(x.R), x.Op
		if op.IsLogical() {
			// Short-circuit logical operators.
			return func(f *Frame) (value.Value, error) {
				lv, err := l(f)
				if err != nil {
					return value.Value{}, err
				}
				lb, ok := lv.AsBool()
				if !ok {
					return value.Value{}, fmt.Errorf("lang: %s: %s on %s", name, op, lv.Kind())
				}
				if op == OpAnd && !lb {
					return value.Bool(false), nil
				}
				if op == OpOr && lb {
					return value.Bool(true), nil
				}
				rv, err := r(f)
				if err != nil {
					return value.Value{}, err
				}
				rb, ok := rv.AsBool()
				if !ok {
					return value.Value{}, fmt.Errorf("lang: %s: %s on %s", name, op, rv.Kind())
				}
				return value.Bool(rb), nil
			}
		}
		return func(f *Frame) (value.Value, error) {
			lv, err := l(f)
			if err != nil {
				return value.Value{}, err
			}
			rv, err := r(f)
			if err != nil {
				return value.Value{}, err
			}
			return EvalBin(op, lv, rv)
		}
	case Not:
		inner := c.expr(x.E)
		return func(f *Frame) (value.Value, error) {
			v, err := inner(f)
			if err != nil {
				return value.Value{}, err
			}
			b, ok := v.AsBool()
			if !ok {
				return value.Value{}, fmt.Errorf("lang: %s: ! on %s", name, v.Kind())
			}
			return value.Bool(!b), nil
		}
	case Field:
		inner, field := c.expr(x.E), x.Name
		return func(f *Frame) (value.Value, error) {
			v, err := inner(f)
			if err != nil {
				return value.Value{}, err
			}
			if fv, ok := v.Field(field); ok {
				return fv, nil
			}
			// Missing fields of existing records read as integer zero;
			// this mirrors a schemaless store where records created by
			// population may lack fields later code initializes lazily.
			return value.Int(0), nil
		}
	case Index:
		list, index := c.expr(x.E), c.expr(x.I)
		return func(f *Frame) (value.Value, error) {
			v, err := list(f)
			if err != nil {
				return value.Value{}, err
			}
			iv, err := index(f)
			if err != nil {
				return value.Value{}, err
			}
			i, ok := iv.AsInt()
			if !ok {
				return value.Value{}, fmt.Errorf("lang: %s: index is %s, want int", name, iv.Kind())
			}
			el, ok := v.Index(int(i))
			if !ok {
				return value.Value{}, fmt.Errorf("lang: %s: index %d out of range (len %d)", name, i, v.Len())
			}
			return el, nil
		}
	case Rec:
		shape := x.recordShape()
		fields := make([]eval, len(x.Fields))
		for i, fi := range x.Fields {
			fields[i] = c.value(fi.E)
		}
		return func(f *Frame) (value.Value, error) {
			var buf [8]value.Value // most record literals fit; keeps vals off the heap
			vals := buf[:0]
			for _, fe := range fields {
				v, err := fe(f)
				if err != nil {
					return value.Value{}, err
				}
				vals = append(vals, v)
			}
			return shape.Record(vals...), nil
		}
	default:
		return func(*Frame) (value.Value, error) {
			return value.Value{}, fmt.Errorf("lang: %s: unknown expression %T", name, e)
		}
	}
}
