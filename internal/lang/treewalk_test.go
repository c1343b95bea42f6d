package lang

import (
	"fmt"

	"prognosticator/internal/value"
)

// This file keeps the tree-walking interpreter the compiled form replaced:
// it evaluates the Program's tree directly, with its locals in a map and
// every record update a copy, so it shares nothing with compile.go but
// EvalBin. It is the oracle the compiled form is tested against
// (FuzzCompiledMatchesTreeWalk): the two must agree on every program.

// treeWalk is RunTrace by walking the tree.
func treeWalk(p *Program, inputs map[string]value.Value, kv KV, trace TraceFunc) (*Result, error) {
	for _, prm := range p.Params {
		if _, ok := inputs[prm.Name]; !ok {
			return nil, fmt.Errorf("lang: %s: missing input %q", p.Name, prm.Name)
		}
	}
	in := &interp{prog: p, inputs: inputs, kv: kv, trace: trace, locals: map[string]value.Value{}}
	in.res.Emitted = map[string]value.Value{}
	if err := in.block(p.Body, "body"); err != nil {
		return nil, err
	}
	return &in.res, nil
}

// interp is one tree-walking execution in progress.
type interp struct {
	prog   *Program
	inputs map[string]value.Value
	kv     KV
	trace  TraceFunc
	locals map[string]value.Value
	res    Result
}

func (in *interp) block(body []Stmt, label string) error {
	for i, st := range body {
		var path string
		if in.trace != nil {
			path = fmt.Sprintf("%s[%d]", label, i)
		}
		if err := in.stmt(st, path); err != nil {
			return err
		}
	}
	return nil
}

// sub extends a structural path; it avoids allocations when not tracing.
func (in *interp) sub(path, suffix string) string {
	if in.trace == nil {
		return ""
	}
	return path + suffix
}

func (in *interp) stmt(st Stmt, path string) error {
	if in.trace != nil {
		in.trace(path, in.locals)
	}
	switch s := st.(type) {
	case Assign:
		v, err := in.eval(s.E)
		if err != nil {
			return err
		}
		in.locals[s.Dst] = v
		return nil
	case SetField:
		rec, ok := in.locals[s.Dst]
		if !ok {
			return fmt.Errorf("lang: %s: SetField on undefined local %q", in.prog.Name, s.Dst)
		}
		v, err := in.eval(s.E)
		if err != nil {
			return err
		}
		in.locals[s.Dst] = rec.WithField(s.Field, v)
		return nil
	case Get:
		k, err := in.key(s.Table, s.Key)
		if err != nil {
			return err
		}
		in.res.Reads = append(in.res.Reads, k)
		v, ok := in.kv.Get(k)
		if !ok {
			v = value.Record(nil)
		}
		in.locals[s.Dst] = v
		return nil
	case Put:
		k, err := in.key(s.Table, s.Key)
		if err != nil {
			return err
		}
		v, err := in.eval(s.Val)
		if err != nil {
			return err
		}
		in.res.Writes = append(in.res.Writes, k)
		in.kv.Put(k, v)
		return nil
	case Del:
		k, err := in.key(s.Table, s.Key)
		if err != nil {
			return err
		}
		in.res.Writes = append(in.res.Writes, k)
		in.kv.Delete(k)
		return nil
	case If:
		c, err := in.eval(s.Cond)
		if err != nil {
			return err
		}
		b, ok := c.AsBool()
		if !ok {
			return fmt.Errorf("lang: %s: if condition is %s, want bool", in.prog.Name, c.Kind())
		}
		if b {
			return in.block(s.Then, in.sub(path, ".then"))
		}
		return in.block(s.Else, in.sub(path, ".else"))
	case For:
		from, err := in.evalInt(s.From)
		if err != nil {
			return err
		}
		to, err := in.evalInt(s.To)
		if err != nil {
			return err
		}
		// The difference is taken in uint64: as int64, to-from wraps
		// negative when the bounds lie far apart (from near MinInt64) and
		// the check would wave through some 2^63 iterations.
		if to > from && uint64(to)-uint64(from) > MaxLoopIterations {
			return fmt.Errorf("lang: %s: loop %q exceeds %d iterations", in.prog.Name, s.Var, MaxLoopIterations)
		}
		for i := from; i < to; i++ {
			in.locals[s.Var] = value.Int(i)
			if err := in.block(s.Body, in.sub(path, ".body")); err != nil {
				return err
			}
		}
		return nil
	case Emit:
		v, err := in.eval(s.E)
		if err != nil {
			return err
		}
		in.res.Emitted[s.Name] = v
		return nil
	default:
		return fmt.Errorf("lang: %s: unknown statement %T", in.prog.Name, st)
	}
}

func (in *interp) key(table string, parts []Expr) (value.Key, error) {
	vals := make([]value.Value, len(parts))
	for i, e := range parts {
		v, err := in.eval(e)
		if err != nil {
			return value.Key{}, err
		}
		vals[i] = v
	}
	return value.KeyOf(table, vals), nil
}

func (in *interp) evalInt(e Expr) (int64, error) {
	v, err := in.eval(e)
	if err != nil {
		return 0, err
	}
	i, ok := v.AsInt()
	if !ok {
		return 0, fmt.Errorf("lang: %s: expected int, got %s", in.prog.Name, v.Kind())
	}
	return i, nil
}

func (in *interp) eval(e Expr) (value.Value, error) {
	switch x := e.(type) {
	case Const:
		return x.V, nil
	case ParamRef:
		v, ok := in.inputs[x.Name]
		if !ok {
			return value.Value{}, fmt.Errorf("lang: %s: missing input %q", in.prog.Name, x.Name)
		}
		return v, nil
	case LocalRef:
		v, ok := in.locals[x.Name]
		if !ok {
			return value.Value{}, fmt.Errorf("lang: %s: undefined local %q", in.prog.Name, x.Name)
		}
		return v, nil
	case Bin:
		l, err := in.eval(x.L)
		if err != nil {
			return value.Value{}, err
		}
		// Short-circuit logical operators.
		if x.Op.IsLogical() {
			lb, ok := l.AsBool()
			if !ok {
				return value.Value{}, fmt.Errorf("lang: %s: %s on %s", in.prog.Name, x.Op, l.Kind())
			}
			if x.Op == OpAnd && !lb {
				return value.Bool(false), nil
			}
			if x.Op == OpOr && lb {
				return value.Bool(true), nil
			}
			r, err := in.eval(x.R)
			if err != nil {
				return value.Value{}, err
			}
			rb, ok := r.AsBool()
			if !ok {
				return value.Value{}, fmt.Errorf("lang: %s: %s on %s", in.prog.Name, x.Op, r.Kind())
			}
			return value.Bool(rb), nil
		}
		r, err := in.eval(x.R)
		if err != nil {
			return value.Value{}, err
		}
		return EvalBin(x.Op, l, r)
	case Not:
		v, err := in.eval(x.E)
		if err != nil {
			return value.Value{}, err
		}
		b, ok := v.AsBool()
		if !ok {
			return value.Value{}, fmt.Errorf("lang: %s: ! on %s", in.prog.Name, v.Kind())
		}
		return value.Bool(!b), nil
	case Field:
		v, err := in.eval(x.E)
		if err != nil {
			return value.Value{}, err
		}
		f, ok := v.Field(x.Name)
		if !ok {
			// Missing fields of existing records read as integer zero;
			// this mirrors a schemaless store where records created by
			// population may lack fields later code initializes lazily.
			return value.Int(0), nil
		}
		return f, nil
	case Index:
		v, err := in.eval(x.E)
		if err != nil {
			return value.Value{}, err
		}
		iv, err := in.eval(x.I)
		if err != nil {
			return value.Value{}, err
		}
		i, ok := iv.AsInt()
		if !ok {
			return value.Value{}, fmt.Errorf("lang: %s: index is %s, want int", in.prog.Name, iv.Kind())
		}
		el, ok := v.Index(int(i))
		if !ok {
			return value.Value{}, fmt.Errorf("lang: %s: index %d out of range (len %d)", in.prog.Name, i, v.Len())
		}
		return el, nil
	case Rec:
		var buf [8]value.Value // most record literals fit; keeps vals off the heap
		vals := buf[:0]
		for _, f := range x.Fields {
			v, err := in.eval(f.E)
			if err != nil {
				return value.Value{}, err
			}
			vals = append(vals, v)
		}
		return x.recordShape().Record(vals...), nil
	default:
		return value.Value{}, fmt.Errorf("lang: %s: unknown expression %T", in.prog.Name, e)
	}
}
