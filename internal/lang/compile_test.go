package lang

import (
	"testing"

	"prognosticator/internal/value"
)

// TestSetFieldOwnership: SetField writes in place only into a record the
// frame alone holds. A record that went into the store, out as an output,
// into another local or inside another record keeps the value it had there,
// however the local it came from is updated afterwards; so does a row read
// from the store and never written back.
func TestSetFieldOwnership(t *testing.T) {
	lit := func() Expr { return RecE(F("x", C(1))) }
	bump := SetF("a", "x", C(2))
	for _, tc := range []struct {
		name string
		body []Stmt
		// want renders what the program emits as "out", or the row it
		// leaves at ACC/1 when it emits no "out".
		want string
	}{
		{"put", []Stmt{Set("a", lit()), PutS("ACC", Key(C(1)), L("a")), bump, bump, EmitS("now", L("a"))}, "{x:1}"},
		{"emit", []Stmt{Set("a", lit()), EmitS("out", L("a")), bump, bump}, "{x:1}"},
		{"alias", []Stmt{Set("a", lit()), Set("b", L("a")), bump, bump, EmitS("out", L("b"))}, "{x:1}"},
		{"aliased by", []Stmt{Set("b", lit()), Set("a", L("b")), bump, SetF("b", "x", C(3)), EmitS("out", L("a"))}, "{x:2}"},
		{"nested", []Stmt{Set("a", lit()), Set("b", RecE(F("r", L("a")))), bump, bump, EmitS("out", L("b"))}, "{r:{x:1}}"},
		{"set into", []Stmt{Set("a", lit()), Set("b", lit()), SetF("b", "r", L("a")), bump, EmitS("out", L("b"))}, "{r:{x:1},x:1}"},
		{"self", []Stmt{Set("a", lit()), SetF("a", "r", L("a")), bump, EmitS("out", L("a"))}, "{r:{x:1},x:2}"},
		{"got", []Stmt{GetS("a", "ACC", C(1)), bump, bump}, "{bal:100}"},
		{"got then put", []Stmt{GetS("a", "ACC", C(1)), bump, PutS("ACC", Key(C(1)), L("a")), SetF("a", "bal", C(0))}, "{bal:100,x:2}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{Name: tc.name, Body: tc.body}
			for _, run := range []struct {
				name string
				fn   func(*Program, map[string]value.Value, KV, TraceFunc) (*Result, error)
			}{{"compiled", RunTrace}, {"tree-walk", treeWalk}} {
				kv := newMapKV()
				kv.Put(value.NewKey("ACC", value.Int(1)), acct(100))
				res, err := run.fn(p, nil, kv, nil)
				if err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				got, ok := res.Emitted["out"]
				if !ok {
					got, _ = kv.Get(value.NewKey("ACC", value.Int(1)))
				}
				if got.String() != tc.want {
					t.Errorf("%s: %s, want %s", run.name, got, tc.want)
				}
			}
		})
	}
}

// TestSetFieldInPlaceAllocs: once the frame owns a record, updating it
// allocates nothing; the first SetField on a row read from the store copies
// it once, and further ones write into that copy.
func TestSetFieldInPlaceAllocs(t *testing.T) {
	p := &Program{
		Name:   "bump",
		Params: []Param{IntParam("n", 0, 100)},
		Body: []Stmt{
			GetS("a", "ACC", C(1)),
			ForS("i", C(0), P("n"),
				SetF("a", "bal", Add(Fld(L("a"), "bal"), L("i"))),
			),
			PutS("ACC", Key(C(1)), L("a")),
		},
	}
	kv := newMapKV()
	kv.Put(value.NewKey("ACC", value.Int(1)), acct(0))
	var f Frame
	allocs := func(n int64) float64 {
		args, err := p.Bind(nil, map[string]value.Value{"n": value.Int(n)})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := f.Run(p, args, kv); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(100)
	if many != one {
		t.Errorf("100 SetFields allocate %v times, one SetField %v: updates in place should cost nothing", many, one)
	}
	// AllocsPerRun runs once more than asked: 51 runs added 0+1+…+99 each.
	if v, _ := kv.Get(value.NewKey("ACC", value.Int(1))); !v.Equal(acct(51 * 4950)) {
		t.Fatalf("ACC/1 = %v after the runs, want %v", v, acct(51*4950))
	}
}
