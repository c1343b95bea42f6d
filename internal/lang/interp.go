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
// Run binds the inputs (Bind) and runs them on a fresh Frame.
func Run(p *Program, inputs map[string]value.Value, kv KV) (*Result, error) {
	return RunTrace(p, inputs, kv, nil)
}

// Bind appends p's arguments to dst: the value inputs holds for each of
// p's parameters, in p's one parameter order (ParamNames). A declared
// parameter that inputs lacks is an error; a name in inputs that is no
// parameter is ignored. What Bind returns is what Frame.Run runs, and what
// the program's profile instantiates from once it is given ParamNames.
func (p *Program) Bind(dst []value.Value, inputs map[string]value.Value) ([]value.Value, error) {
	c := p.lower()
	for i, prm := range c.params {
		v, ok := inputs[prm.name]
		if !ok && i < c.declared {
			return dst, fmt.Errorf("lang: %s: missing input %q", p.Name, prm.name)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// ParamNames returns p's parameter order, the positions Bind gives the
// inputs: the declared parameters in declaration order, duplicates dropped,
// then any name the body reads as a parameter without declaring it.
func (p *Program) ParamNames() []string {
	c := p.lower()
	names := make([]string, len(c.params))
	for i, prm := range c.params {
		names[i] = prm.name
	}
	return names
}

// TraceFunc observes one statement about to execute: its structural path
// (matching the lint CFG's node paths, e.g. "body[2].then[0]"; loop bodies
// are reported once per iteration) and the locals live at that point. The
// map is the interpreter's own and is refilled at every statement —
// callbacks must not mutate or retain it, nor change a record in it. The
// statement has not executed yet when the callback fires, so the locals are
// the statement's entry state.
type TraceFunc func(path string, locals map[string]value.Value)

// RunTrace is Run with a statement-entry trace hook; the lint soundness
// checker uses it to validate abstract states against concrete executions.
// It runs the same compiled code as Run, and builds the locals map the hook
// is shown only when there is a hook.
func RunTrace(p *Program, inputs map[string]value.Value, kv KV, trace TraceFunc) (*Result, error) {
	var buf [16]value.Value
	args, err := p.Bind(buf[:0], inputs)
	if err != nil {
		return nil, err
	}
	return new(Frame).run(p, args, kv, trace)
}

// Frame is the interpreter state one execution needs and the next can reuse:
// the slot array that holds the parameters and locals, and the Reads/Writes
// lists. An executor that runs many transactions keeps a Frame per worker
// and calls Run on it; the buffers then grow to the largest transaction seen
// and, besides Emitted, an execution allocates only its keys' encodings and
// the records it builds. A Frame is not safe for concurrent use.
type Frame struct {
	slots []value.Value
	state []slotState
	res   Result
	kv    KV
	// With a trace hook, traced is the locals map the hook is shown at each
	// statement, refilled from the slots code names.
	trace  TraceFunc
	traced map[string]value.Value
	code   *code
}

// Run is lang.Run on the frame's buffers, from arguments already bound
// (Program.Bind): args[i] is the value of parameter i, and an invalid
// Value is a missing one. The returned Result and its Reads and Writes
// belong to the frame and are valid until its next Run: copy what must
// outlive that. Emitted is allocated per run and is the caller's.
func (f *Frame) Run(p *Program, args []value.Value, kv KV) (*Result, error) {
	return f.run(p, args, kv, nil)
}

func (f *Frame) run(p *Program, args []value.Value, kv KV, trace TraceFunc) (*Result, error) {
	c := p.lower()
	if len(args) != len(c.params) {
		return nil, fmt.Errorf("lang: %s: %d arguments for %d parameters", p.Name, len(args), len(c.params))
	}
	// Reset at entry, not exit, so that a run that failed half-way leaves
	// nothing behind. Clearing drops the last run's values and keys.
	if len(f.slots) < c.nslots {
		f.slots, f.state = make([]value.Value, c.nslots), make([]slotState, c.nslots)
	} else {
		clear(f.slots)
		clear(f.state)
	}
	for i, prm := range c.params {
		v := args[i]
		if !v.IsValid() {
			if i < c.declared {
				return nil, fmt.Errorf("lang: %s: missing input %q", p.Name, prm.name)
			}
			continue
		}
		f.slots[prm.slot], f.state[prm.slot] = v, set
	}
	clear(f.res.Reads)
	clear(f.res.Writes)
	f.res = Result{Emitted: map[string]value.Value{}, Reads: f.res.Reads[:0], Writes: f.res.Writes[:0]}
	f.kv, f.trace, f.code = kv, trace, c
	err := f.block(c.body)
	f.kv, f.trace, f.code = nil, nil, nil
	if err != nil {
		return nil, err
	}
	return &f.res, nil
}

func (f *Frame) block(steps []step) error {
	for i := range steps {
		s := &steps[i]
		if f.trace != nil {
			f.traceAt(s.path)
		}
		if err := s.run(f); err != nil {
			return err
		}
	}
	return nil
}

// traceAt shows the trace hook the statement at path and the locals
// defined on entry to it.
func (f *Frame) traceAt(path string) {
	if f.traced == nil {
		f.traced = map[string]value.Value{}
	}
	clear(f.traced)
	for _, l := range f.code.locals {
		if f.state[l.slot] != unset {
			f.traced[l.name] = f.slots[l.slot]
		}
	}
	f.trace(path, f.traced)
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
