package lang

import (
	"math"
	"strings"
	"testing"
	"time"

	"prognosticator/internal/value"
)

// mapKV is a trivial KV used by interpreter tests.
type mapKV struct{ m map[value.Encoded]value.Value }

func newMapKV() *mapKV { return &mapKV{m: map[value.Encoded]value.Value{}} }

func (kv *mapKV) Get(k value.Key) (value.Value, bool) {
	v, ok := kv.m[k.Encode()]
	return v, ok
}
func (kv *mapKV) Put(k value.Key, v value.Value) { kv.m[k.Encode()] = v }
func (kv *mapKV) Delete(k value.Key)             { delete(kv.m, k.Encode()) }

var testSchema = NewSchema(
	TableSpec{Name: "ACC", KeyArity: 1},
	TableSpec{Name: "PAIR", KeyArity: 2},
)

// transferProg moves amount from account src to dst if funds suffice.
func transferProg() *Program {
	return &Program{
		Name: "transfer",
		Params: []Param{
			IntParam("src", 0, 100),
			IntParam("dst", 0, 100),
			IntParam("amount", 1, 50),
		},
		Body: []Stmt{
			GetS("s", "ACC", P("src")),
			GetS("d", "ACC", P("dst")),
			IfS(Ge(Fld(L("s"), "bal"), P("amount")),
				SetF("s", "bal", Sub(Fld(L("s"), "bal"), P("amount"))),
				SetF("d", "bal", Add(Fld(L("d"), "bal"), P("amount"))),
				PutS("ACC", Key(P("src")), L("s")),
				PutS("ACC", Key(P("dst")), L("d")),
				EmitS("ok", Cb(true)),
			),
		},
	}
}

func acct(bal int64) value.Value {
	return value.Record(map[string]value.Value{"bal": value.Int(bal)})
}

func TestTransferExecutes(t *testing.T) {
	if err := testSchema.Validate(transferProg()); err != nil {
		t.Fatalf("validate: %v", err)
	}
	kv := newMapKV()
	kv.Put(value.NewKey("ACC", value.Int(1)), acct(100))
	kv.Put(value.NewKey("ACC", value.Int(2)), acct(5))
	res, err := Run(transferProg(), map[string]value.Value{
		"src": value.Int(1), "dst": value.Int(2), "amount": value.Int(30),
	}, kv)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := kv.Get(value.NewKey("ACC", value.Int(1)))
	d, _ := kv.Get(value.NewKey("ACC", value.Int(2)))
	if b, _ := s.Field("bal"); b.MustInt() != 70 {
		t.Fatalf("src bal = %v", b)
	}
	if b, _ := d.Field("bal"); b.MustInt() != 35 {
		t.Fatalf("dst bal = %v", b)
	}
	if len(res.Reads) != 2 || len(res.Writes) != 2 {
		t.Fatalf("reads/writes = %d/%d", len(res.Reads), len(res.Writes))
	}
	if ok, found := res.Emitted["ok"]; !found || !ok.MustBool() {
		t.Fatalf("emitted = %v", res.Emitted)
	}
}

func TestTransferInsufficientFunds(t *testing.T) {
	kv := newMapKV()
	kv.Put(value.NewKey("ACC", value.Int(1)), acct(10))
	kv.Put(value.NewKey("ACC", value.Int(2)), acct(0))
	res, err := Run(transferProg(), map[string]value.Value{
		"src": value.Int(1), "dst": value.Int(2), "amount": value.Int(30),
	}, kv)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Writes) != 0 {
		t.Fatalf("expected no writes, got %v", res.Writes)
	}
	if _, found := res.Emitted["ok"]; found {
		t.Fatal("ok should not be emitted")
	}
}

func TestMissingItemReadsAsEmptyRecord(t *testing.T) {
	p := &Program{
		Name:   "probe",
		Params: []Param{IntParam("k", 0, 10)},
		Body: []Stmt{
			GetS("x", "ACC", P("k")),
			EmitS("bal", Fld(L("x"), "bal")),
		},
	}
	res, err := Run(p, map[string]value.Value{"k": value.Int(7)}, newMapKV())
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted["bal"].MustInt() != 0 {
		t.Fatalf("missing field should read 0, got %v", res.Emitted["bal"])
	}
}

func TestForLoopAndIndex(t *testing.T) {
	p := &Program{
		Name: "batchput",
		Params: []Param{
			IntParam("n", 1, 5),
			ListParam("ids", IntParam("", 0, 99), 5, "n"),
		},
		Body: []Stmt{
			Set("sum", C(0)),
			ForS("i", C(0), P("n"),
				Set("id", Idx(P("ids"), L("i"))),
				PutS("ACC", Key(L("id")), RecE(F("bal", L("i")))),
				Set("sum", Add(L("sum"), L("id"))),
			),
			EmitS("sum", L("sum")),
		},
	}
	if err := testSchema.Validate(p); err != nil {
		t.Fatalf("validate: %v", err)
	}
	kv := newMapKV()
	res, err := Run(p, map[string]value.Value{
		"n":   value.Int(3),
		"ids": value.List(value.Int(4), value.Int(8), value.Int(15)),
	}, kv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted["sum"].MustInt() != 27 {
		t.Fatalf("sum = %v", res.Emitted["sum"])
	}
	if len(res.Writes) != 3 {
		t.Fatalf("writes = %v", res.Writes)
	}
	v, ok := kv.Get(value.NewKey("ACC", value.Int(15)))
	if !ok {
		t.Fatal("key 15 missing")
	}
	if b, _ := v.Field("bal"); b.MustInt() != 2 {
		t.Fatalf("bal = %v", b)
	}
}

func TestArithmeticAndLogic(t *testing.T) {
	p := &Program{
		Name:   "math",
		Params: []Param{IntParam("a", -100, 100), IntParam("b", 1, 100)},
		Body: []Stmt{
			EmitS("add", Add(P("a"), P("b"))),
			EmitS("sub", Sub(P("a"), P("b"))),
			EmitS("mul", Mul(P("a"), P("b"))),
			EmitS("div", Div(P("a"), P("b"))),
			EmitS("mod", Mod(P("a"), P("b"))),
			EmitS("lt", Lt(P("a"), P("b"))),
			EmitS("and", And(Gt(P("a"), C(0)), Gt(P("b"), C(0)))),
			EmitS("or", Or(Lt(P("a"), C(0)), Lt(P("b"), C(0)))),
			EmitS("not", Neg(Eq(P("a"), P("b")))),
		},
	}
	res, err := Run(p, map[string]value.Value{"a": value.Int(-7), "b": value.Int(3)}, newMapKV())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]value.Value{
		"add": value.Int(-4), "sub": value.Int(-10), "mul": value.Int(-21),
		"div": value.Int(-2), "mod": value.Int(-1),
		"lt": value.Bool(true), "and": value.Bool(false),
		"or": value.Bool(true), "not": value.Bool(true),
	}
	for k, w := range want {
		if got := res.Emitted[k]; !got.Equal(w) {
			t.Errorf("%s = %v, want %v", k, got, w)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand indexes out of range; short-circuit must avoid it.
	p := &Program{
		Name:   "sc",
		Params: []Param{ListParam("xs", IntParam("", 0, 9), 3, "")},
		Body: []Stmt{
			IfS(Or(Cb(true), Gt(Idx(P("xs"), C(99)), C(0))),
				EmitS("or", Cb(true))),
			IfS(And(Cb(false), Gt(Idx(P("xs"), C(99)), C(0))),
				EmitS("bad", Cb(true))),
		},
	}
	res, err := Run(p, map[string]value.Value{"xs": value.List(value.Int(1))}, newMapKV())
	if err != nil {
		t.Fatalf("short circuit failed: %v", err)
	}
	if _, found := res.Emitted["bad"]; found {
		t.Fatal("false && ... must not run then-branch")
	}
	if _, found := res.Emitted["or"]; !found {
		t.Fatal("true || ... must run then-branch")
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		in   map[string]value.Value
		want string
	}{
		{
			name: "missing input",
			p: &Program{Name: "t", Params: []Param{IntParam("a", 0, 1)},
				Body: []Stmt{EmitS("x", P("a"))}},
			in:   map[string]value.Value{},
			want: "missing input",
		},
		{
			name: "div by zero",
			p: &Program{Name: "t",
				Body: []Stmt{EmitS("x", Div(C(1), C(0)))}},
			in:   map[string]value.Value{},
			want: "division by zero",
		},
		{
			name: "mod by zero",
			p: &Program{Name: "t",
				Body: []Stmt{EmitS("x", Mod(C(1), C(0)))}},
			in:   map[string]value.Value{},
			want: "modulo by zero",
		},
		{
			name: "bad if cond",
			p: &Program{Name: "t",
				Body: []Stmt{IfS(C(3), EmitS("x", C(1)))}},
			in:   map[string]value.Value{},
			want: "want bool",
		},
		{
			name: "undefined local",
			p: &Program{Name: "t",
				Body: []Stmt{EmitS("x", L("nope"))}},
			in:   map[string]value.Value{},
			want: "undefined local",
		},
		{
			name: "index out of range",
			p: &Program{Name: "t", Params: []Param{ListParam("xs", IntParam("", 0, 9), 2, "")},
				Body: []Stmt{EmitS("x", Idx(P("xs"), C(5)))}},
			in:   map[string]value.Value{"xs": value.List(value.Int(1))},
			want: "out of range",
		},
		{
			name: "arith on string",
			p: &Program{Name: "t",
				Body: []Stmt{EmitS("x", Add(Cs("a"), C(1)))}},
			in:   map[string]value.Value{},
			want: "+ on string,int",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(c.p, c.in, newMapKV())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

// TestLoopBound runs each loop under a timeout: a bound check that overflows
// lets a loop through that would run for centuries, and the inputs that set
// the bounds arrive off the wire unchecked.
func TestLoopBound(t *testing.T) {
	cases := []struct {
		name     string
		from, to int64
		wantErr  bool
	}{
		{"over the bound", 0, MaxLoopIterations + 2, true},
		{"at the bound", 0, MaxLoopIterations, false},
		{"empty range", 5, 0, false},
		{"lower bound at MinInt64", math.MinInt64, 1, true},
		{"upper bound at MaxInt64", -1, math.MaxInt64, true},
		{"whole int64 range", math.MinInt64, math.MaxInt64, true},
	}
	for _, c := range cases {
		p := &Program{
			Name: "bigloop",
			Body: []Stmt{ForS("i", P("a"), P("b"), Set("x", L("i")))},
		}
		done := make(chan error, 1)
		go func() {
			_, err := Run(p, map[string]value.Value{"a": value.Int(c.from), "b": value.Int(c.to)}, newMapKV())
			done <- err
		}()
		select {
		case err := <-done:
			if (err != nil) != c.wantErr {
				t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: loop from %d to %d still running after 5s", c.name, c.from, c.to)
		}
	}
}

func TestIsReadOnly(t *testing.T) {
	if transferProg().IsReadOnly() {
		t.Fatal("transfer writes and is not read-only")
	}
	ro := &Program{Name: "ro", Params: []Param{IntParam("k", 0, 9)},
		Body: []Stmt{GetS("x", "ACC", P("k")), EmitS("v", L("x"))}}
	if !ro.IsReadOnly() {
		t.Fatal("pure GET program should be read-only")
	}
	nested := &Program{Name: "n", Params: []Param{IntParam("k", 0, 9)},
		Body: []Stmt{IfS(Cb(true), ForS("i", C(0), C(2), DelS("ACC", L("i"))))}}
	if nested.IsReadOnly() {
		t.Fatal("nested DEL must make the program read-write")
	}
}

func TestEqNeAcrossKinds(t *testing.T) {
	p := &Program{Name: "eq",
		Body: []Stmt{
			EmitS("a", Eq(Cs("x"), Cs("x"))),
			EmitS("b", Eq(Cs("x"), C(1))),
			EmitS("c", Ne(Cs("x"), C(1))),
		}}
	res, err := Run(p, map[string]value.Value{}, newMapKV())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Emitted["a"].MustBool() || res.Emitted["b"].MustBool() || !res.Emitted["c"].MustBool() {
		t.Fatalf("emitted = %v", res.Emitted)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (map[string]value.Value, map[value.Encoded]value.Value) {
		kv := newMapKV()
		kv.Put(value.NewKey("ACC", value.Int(1)), acct(100))
		kv.Put(value.NewKey("ACC", value.Int(2)), acct(5))
		res, err := Run(transferProg(), map[string]value.Value{
			"src": value.Int(1), "dst": value.Int(2), "amount": value.Int(30),
		}, kv)
		if err != nil {
			t.Fatal(err)
		}
		return res.Emitted, kv.m
	}
	e1, m1 := run()
	e2, m2 := run()
	if len(e1) != len(e2) || len(m1) != len(m2) {
		t.Fatal("nondeterministic execution")
	}
	for k, v := range m1 {
		if !m2[k].Equal(v) {
			t.Fatalf("state diverged at %s", k)
		}
	}
}

// TestFrameReuse: a Frame run after run gives what Run gives on fresh state
// each time — no local, read, write or key part of one execution shows in
// the next, whatever ran in between, a failed run included — and Emitted is
// the caller's to keep.
func TestFrameReuse(t *testing.T) {
	loop := &Program{
		Name:   "batchput",
		Params: []Param{IntParam("n", 1, 5), ListParam("ids", IntParam("", 0, 99), 5, "n")},
		Body: []Stmt{
			Set("sum", C(0)),
			ForS("i", C(0), P("n"),
				Set("id", Idx(P("ids"), L("i"))),
				GetS("old", "PAIR", L("id"), L("i")),
				PutS("ACC", Key(L("id")), RecE(F("bal", L("i")))),
				Set("sum", Add(L("sum"), L("id"))),
			),
			EmitS("sum", L("sum")),
		},
	}
	// useSum reads a local only batchput assigns: it must fail on a reused
	// frame exactly as on a fresh one.
	useSum := &Program{Name: "useSum", Body: []Stmt{EmitS("sum", L("sum"))}}
	type call struct {
		p      *Program
		inputs map[string]value.Value
	}
	ids := func(n ...int64) map[string]value.Value {
		vs := make([]value.Value, len(n))
		for i, x := range n {
			vs[i] = value.Int(x)
		}
		return map[string]value.Value{"n": value.Int(int64(len(n))), "ids": value.List(vs...)}
	}
	calls := []call{
		{loop, ids(4, 8, 15, 16, 23)},
		{transferProg(), map[string]value.Value{"src": value.Int(1), "dst": value.Int(2), "amount": value.Int(30)}},
		{useSum, nil},
		{loop, ids(42)},
		{transferProg(), map[string]value.Value{"src": value.Int(2), "dst": value.Int(1), "amount": value.Int(1)}},
		{loop, ids(4, 8, 15, 16, 23)},
	}
	render := func(res *Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var b strings.Builder
		for _, k := range res.Reads {
			b.WriteString("R " + k.String() + " ")
		}
		for _, k := range res.Writes {
			b.WriteString("W " + k.String() + " ")
		}
		return b.String() + value.Record(res.Emitted).String()
	}
	seed := func() *mapKV {
		kv := newMapKV()
		kv.Put(value.NewKey("ACC", value.Int(1)), acct(100))
		kv.Put(value.NewKey("ACC", value.Int(2)), acct(5))
		return kv
	}
	var f Frame
	kvFrame, kvFresh := seed(), seed()
	var kept []map[string]value.Value
	var wantKept []string
	for i, c := range calls {
		got, gotErr := runFrame(&f, c.p, c.inputs, kvFrame)
		want, wantErr := Run(c.p, c.inputs, kvFresh)
		if g, w := render(got, gotErr), render(want, wantErr); g != w {
			t.Fatalf("call %d (%s):\nreused frame: %s\nfresh:        %s", i, c.p.Name, g, w)
		}
		if gotErr == nil {
			kept = append(kept, got.Emitted)
			wantKept = append(wantKept, value.Record(want.Emitted).String())
		}
	}
	for i, e := range kept {
		if got := value.Record(e).String(); got != wantKept[i] {
			t.Fatalf("Emitted of run %d changed under later runs: %s, was %s", i, got, wantKept[i])
		}
	}
	for k, v := range kvFresh.m {
		if !kvFrame.m[k].Equal(v) {
			t.Fatalf("state diverged at %s", k)
		}
	}
}

// runFrame runs p on f with the inputs bound as Run binds them.
func runFrame(f *Frame, p *Program, inputs map[string]value.Value, kv KV) (*Result, error) {
	args, err := p.Bind(nil, inputs)
	if err != nil {
		return nil, err
	}
	return f.Run(p, args, kv)
}
