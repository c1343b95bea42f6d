package lang

import (
	"fmt"

	"prognosticator/internal/value"
)

// KV is the data-store interface a transaction executes against. Get reports
// false when the item does not exist.
type KV interface {
	Get(k value.Key) (value.Value, bool)
	Put(k value.Key, v value.Value)
	Delete(k value.Key)
}

// Result captures the observable effects of one concrete execution.
type Result struct {
	// Emitted holds the outputs produced by Emit statements.
	Emitted map[string]value.Value
	// Reads and Writes list the keys touched, in program order with
	// duplicates preserved. Reconnaissance mode uses them as the
	// discovered key-set.
	Reads  []value.Key
	Writes []value.Key
}

// MaxLoopIterations bounds any single For statement during concrete
// execution; exceeding it is a programming error surfaced as an execution
// error rather than a hang.
const MaxLoopIterations = 1 << 16

// Run executes p concretely with the given inputs against kv. Inputs must
// contain a value for every declared parameter. The interpreter is
// deterministic: identical inputs and store state produce identical effects.
func Run(p *Program, inputs map[string]value.Value, kv KV) (*Result, error) {
	return RunTrace(p, inputs, kv, nil)
}

// TraceFunc observes one statement about to execute: its structural path
// (matching the lint CFG's node paths, e.g. "body[2].then[0]"; loop bodies
// are reported once per iteration) and the locals live at that point. The
// map is the interpreter's own state — callbacks must not mutate or retain
// it. The statement has not executed yet when the callback fires, so the
// locals are the statement's entry state.
type TraceFunc func(path string, locals map[string]value.Value)

// RunTrace is Run with a statement-entry trace hook; the lint soundness
// checker uses it to validate abstract states against concrete executions.
// A nil trace is exactly Run (no per-statement path bookkeeping).
func RunTrace(p *Program, inputs map[string]value.Value, kv KV, trace TraceFunc) (*Result, error) {
	return new(Frame).run(p, inputs, kv, trace)
}

// Frame is the interpreter state one execution needs and the next can reuse:
// the locals map, the Reads/Writes lists and the slab key parts are carved
// from. An executor that runs many transactions keeps a Frame per worker and
// calls Run on it; the buffers then grow to the largest transaction seen and
// nothing but Emitted is allocated per execution. A Frame is not safe for
// concurrent use.
type Frame struct {
	locals map[string]value.Value
	res    Result
	// parts backs the Parts of every key built during the current run. When
	// it fills up a larger slab replaces it; keys already built keep the old
	// one alive.
	parts []value.Value
}

// Run is lang.Run on the frame's buffers. The returned Result, its Reads and
// Writes and the Parts of the keys in them (and of every key handed to kv)
// belong to the frame and are valid until its next Run: copy what must
// outlive that. Emitted is allocated per run and is the caller's.
func (f *Frame) Run(p *Program, inputs map[string]value.Value, kv KV) (*Result, error) {
	return f.run(p, inputs, kv, nil)
}

func (f *Frame) run(p *Program, inputs map[string]value.Value, kv KV, trace TraceFunc) (*Result, error) {
	for _, prm := range p.Params {
		if _, ok := inputs[prm.Name]; !ok {
			return nil, fmt.Errorf("lang: %s: missing input %q", p.Name, prm.Name)
		}
	}
	if f.locals == nil {
		f.locals = map[string]value.Value{}
	}
	// Reset at entry, not exit, so that a run that failed half-way leaves
	// nothing behind. Clearing drops the last run's values and key strings.
	clear(f.locals)
	clear(f.res.Reads)
	clear(f.res.Writes)
	clear(f.parts)
	f.parts = f.parts[:0]
	f.res = Result{Emitted: map[string]value.Value{}, Reads: f.res.Reads[:0], Writes: f.res.Writes[:0]}
	in := interp{prog: p, inputs: inputs, kv: kv, trace: trace, Frame: f}
	if err := in.block(p.Body, "body"); err != nil {
		return nil, err
	}
	return &f.res, nil
}

// interp is one execution in progress on a frame.
type interp struct {
	prog   *Program
	inputs map[string]value.Value
	kv     KV
	trace  TraceFunc
	*Frame
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

// minPartsSlab is the first slab's size in key parts: enough for a short
// read-only transaction, small enough that a one-shot Run does not pay for
// a buffer it will not fill.
const minPartsSlab = 4

func (in *interp) key(table string, parts []Expr) (value.Key, error) {
	n := len(parts)
	if cap(in.parts)-len(in.parts) < n {
		in.parts = make([]value.Value, 0, max(2*cap(in.parts), n, minPartsSlab))
	}
	at := len(in.parts)
	in.parts = in.parts[:at+n]
	vals := in.parts[at : at+n : at+n]
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

// EvalBin applies a non-logical binary operator to two concrete values. It
// is shared by the concrete interpreter and by the symbolic executor's
// constant folding.
func EvalBin(op Op, l, r value.Value) (value.Value, error) {
	switch {
	case op.IsArithmetic():
		li, lok := l.AsInt()
		ri, rok := r.AsInt()
		if !lok || !rok {
			return value.Value{}, fmt.Errorf("lang: %s on %s,%s", op, l.Kind(), r.Kind())
		}
		switch op {
		case OpAdd:
			return value.Int(li + ri), nil
		case OpSub:
			return value.Int(li - ri), nil
		case OpMul:
			return value.Int(li * ri), nil
		case OpDiv:
			if ri == 0 {
				return value.Value{}, fmt.Errorf("lang: division by zero")
			}
			return value.Int(li / ri), nil
		default: // OpMod
			if ri == 0 {
				return value.Value{}, fmt.Errorf("lang: modulo by zero")
			}
			return value.Int(li % ri), nil
		}
	case op.IsComparison():
		if op == OpEq {
			return value.Bool(l.Equal(r)), nil
		}
		if op == OpNe {
			return value.Bool(!l.Equal(r)), nil
		}
		if l.Kind() != r.Kind() || (l.Kind() != value.KindInt && l.Kind() != value.KindString) {
			return value.Value{}, fmt.Errorf("lang: %s on %s,%s", op, l.Kind(), r.Kind())
		}
		c := l.Compare(r)
		switch op {
		case OpLt:
			return value.Bool(c < 0), nil
		case OpLe:
			return value.Bool(c <= 0), nil
		case OpGt:
			return value.Bool(c > 0), nil
		default: // OpGe
			return value.Bool(c >= 0), nil
		}
	case op.IsLogical():
		lb, lok := l.AsBool()
		rb, rok := r.AsBool()
		if !lok || !rok {
			return value.Value{}, fmt.Errorf("lang: %s on %s,%s", op, l.Kind(), r.Kind())
		}
		if op == OpAnd {
			return value.Bool(lb && rb), nil
		}
		return value.Bool(lb || rb), nil
	default:
		return value.Value{}, fmt.Errorf("lang: unknown operator %v", op)
	}
}
