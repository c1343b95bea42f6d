package lang_test

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// FuzzCompiledMatchesTreeWalk runs programs both compiled (lang.Run, on one
// reused Frame) and through the tree-walking oracle, each against its own
// copy of the same store, and requires the same Emitted, Reads, Writes,
// final store and error text. A first byte that is even asks for a random
// program of at most 12 statements over a few locals and two parameters,
// with the aliasing the compiled form's in-place SetField must see through
// (a local copied, Put, Emitted or stored inside a record, then updated);
// its statement-entry traces must match too. An odd first byte runs a short
// sequence of TPC-C and RUBiS transactions over a small populated store:
// the seed corpus holds one such input per program.
func FuzzCompiledMatchesTreeWalk(f *testing.F) {
	for i := range workloadPrograms() {
		f.Add([]byte{1, byte(i), 7, 3, 250, 1, 99, 42, 5, 17, 0, 8})
	}
	f.Add([]byte{0, 11, 8, 0, 2, 9, 1, 1, 3, 0, 1, 7, 1, 2, 4, 2})
	f.Add([]byte{2, 8, 8, 1, 2, 1, 8, 0, 2, 0, 1, 1, 1, 3, 0, 0, 7, 1, 0})
	f.Add([]byte{4, 12, 8, 2, 1, 1, 3, 0, 1, 2, 6, 2, 1, 0, 2, 5, 0, 3, 7, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		src := &byteSource{b: data[1:]}
		if data[0]%2 == 0 {
			checkRandomProgram(t, src)
		} else {
			checkWorkloadSequence(t, src)
		}
	})
}

// byteSource deals the fuzz input out as choices; past its end every choice
// is 0.
type byteSource struct{ b []byte }

func (s *byteSource) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

func (s *byteSource) intn(n int) int { return s.next() % n }

func checkRandomProgram(t *testing.T, src *byteSource) {
	g := &progGen{src: src, budget: 12}
	p := &lang.Program{Name: "fuzz", Params: []lang.Param{lang.IntParam("p", 0, 3), lang.IntParam("q", -2, 2)}}
	p.Body = g.block(0)
	inputs := inputsFor(p, src)
	var gotTrace, wantTrace []string
	tracer := func(out *[]string) lang.TraceFunc {
		return func(path string, locals map[string]value.Value) {
			*out = append(*out, path+" "+value.Record(locals).String())
		}
	}
	kvGot, kvWant := seededKV(), seededKV()
	got, gotErr := lang.RunTrace(p, inputs, kvGot, tracer(&gotTrace))
	want, wantErr := lang.TreeWalk(p, inputs, kvWant, tracer(&wantTrace))
	label := fmt.Sprintf("%s\ninputs %v", lang.Format(p), inputs)
	compareRuns(t, label, got, gotErr, want, wantErr)
	if !slices.Equal(gotTrace, wantTrace) {
		t.Fatalf("%s\ncompiled trace:\n%s\ntree-walk trace:\n%s", label, strings.Join(gotTrace, "\n"), strings.Join(wantTrace, "\n"))
	}
	if !maps.EqualFunc(kvGot.m, kvWant.m, value.Value.Equal) {
		t.Fatalf("%s\ncompiled store %v\ntree-walk store %v", label, kvGot.m, kvWant.m)
	}
	// Untraced and on a reused frame, the compiled form does the same.
	var fr lang.Frame
	for range 2 {
		kv := seededKV()
		again, err := frameRun(&fr, p, inputs, kv)
		compareRuns(t, label+"\n(frame reused)", again, err, want, wantErr)
		if !maps.EqualFunc(kv.m, kvWant.m, value.Value.Equal) {
			t.Fatalf("%s\nreused frame's store %v\ntree-walk store %v", label, kv.m, kvWant.m)
		}
	}
}

func checkWorkloadSequence(t *testing.T, src *byteSource) {
	progs := workloadPrograms()
	stGot, stWant := workloadStore(), workloadStore()
	kvGot, kvWant := stGot.WriterAt(1), stWant.WriterAt(1)
	var fr lang.Frame
	// The first choice names the first program, so that seed i runs
	// program i; up to three more follow it.
	for i, more := 0, 0; i <= more; i++ {
		p := progs[src.intn(len(progs))]
		inputs := inputsFor(p, src)
		if i == 0 {
			more = src.intn(4)
		}
		got, gotErr := frameRun(&fr, p, inputs, kvGot)
		want, wantErr := lang.TreeWalk(p, inputs, kvWant, nil)
		compareRuns(t, fmt.Sprintf("%s%v", p.Name, inputs), got, gotErr, want, wantErr)
		if stGot.StateHash(1) != stWant.StateHash(1) {
			t.Fatalf("%s%v: the stores diverged", p.Name, inputs)
		}
	}
}

func compareRuns(t *testing.T, label string, got *lang.Result, gotErr error, want *lang.Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s\ncompiled error: %v\ntree-walk error: %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !maps.EqualFunc(got.Emitted, want.Emitted, value.Value.Equal) {
		t.Fatalf("%s\ncompiled Emitted %v\ntree-walk Emitted %v", label, got.Emitted, want.Emitted)
	}
	if !slices.EqualFunc(got.Reads, want.Reads, value.Key.Equal) || !slices.EqualFunc(got.Writes, want.Writes, value.Key.Equal) {
		t.Fatalf("%s\ncompiled reads %v writes %v\ntree-walk reads %v writes %v", label, got.Reads, got.Writes, want.Reads, want.Writes)
	}
}

// mapKV is a KV over a plain map.
type mapKV struct{ m map[value.Encoded]value.Value }

func (kv *mapKV) Get(k value.Key) (value.Value, bool) {
	v, ok := kv.m[k.Encode()]
	return v, ok
}
func (kv *mapKV) Put(k value.Key, v value.Value) { kv.m[k.Encode()] = v }
func (kv *mapKV) Delete(k value.Key)             { delete(kv.m, k.Encode()) }

// seededKV holds rows T/0 … T/3, each {x: k, y: 0}.
func seededKV() *mapKV {
	kv := &mapKV{m: map[value.Encoded]value.Value{}}
	row := value.NewShape("x", "y")
	for k := int64(0); k < 4; k++ {
		kv.Put(value.NewKey("T", value.Int(k)), row.Record(value.Int(k), value.Int(0)))
	}
	return kv
}

var (
	fuzzTPCC  = tpcc.Config{Warehouses: 1, Items: 40, CustomersPerDistrict: 10, OrderLinesMin: 5, OrderLinesMax: 15}
	fuzzRUBiS = rubis.Config{Users: 20, Items: 20}
)

func workloadPrograms() []*lang.Program {
	return append(tpcc.Programs(fuzzTPCC), rubis.Programs(fuzzRUBiS)...)
}

func workloadStore() *store.Store {
	st := store.New()
	tpcc.Populate(st, fuzzTPCC)
	rubis.Populate(st, fuzzRUBiS)
	return st
}

// inputsFor draws a value for every parameter from its declared domain:
// integers first, so that a list whose length another parameter gives can
// read it.
func inputsFor(p *lang.Program, src *byteSource) map[string]value.Value {
	in := map[string]value.Value{}
	params := slices.Clone(p.Params)
	sort.SliceStable(params, func(i, j int) bool { return params[i].Kind == value.KindInt && params[j].Kind != value.KindInt })
	for _, prm := range params {
		if prm.Kind == value.KindList {
			n := src.intn(prm.MaxLen + 1)
			if l, ok := in[prm.LenParam]; ok {
				n = min(int(l.MustInt()), prm.MaxLen)
			}
			elems := make([]value.Value, max(n, 0))
			for i := range elems {
				elems[i] = draw(*prm.Elem, src)
			}
			in[prm.Name] = value.List(elems...)
			continue
		}
		in[prm.Name] = draw(prm, src)
	}
	return in
}

func draw(prm lang.Param, src *byteSource) value.Value {
	switch prm.Kind {
	case value.KindInt:
		span := uint64(prm.Hi-prm.Lo) + 1
		if span == 0 || prm.Hi < prm.Lo {
			return value.Int(prm.Lo)
		}
		return value.Int(prm.Lo + int64(uint64(src.next()+src.next()<<8)%span))
	case value.KindString:
		return value.Str(fmt.Sprint("s", src.intn(4)))
	case value.KindBool:
		return value.Bool(src.intn(2) == 1)
	default:
		return value.Int(0)
	}
}

// progGen builds a random program from byte choices.
type progGen struct {
	src    *byteSource
	budget int // statements left to place
}

var (
	genLocals = []string{"a", "b", "c"}
	genFields = []string{"x", "y", "r"}
)

func (g *progGen) local() string { return genLocals[g.src.intn(len(genLocals))] }
func (g *progGen) field() string { return genFields[g.src.intn(len(genFields))] }

func (g *progGen) block(depth int) []lang.Stmt {
	n := 1 + g.src.intn(3)
	if depth == 0 {
		n = 1 + g.src.intn(12)
	}
	var out []lang.Stmt
	for ; n > 0 && g.budget > 0; n-- {
		out = append(out, g.stmt(depth)...)
	}
	return out
}

func (g *progGen) stmt(depth int) []lang.Stmt {
	g.budget--
	switch g.src.intn(11) {
	case 0:
		return []lang.Stmt{lang.Set(g.local(), g.value(2))}
	case 1:
		return []lang.Stmt{lang.SetF(g.local(), g.field(), g.value(2))}
	case 2:
		return []lang.Stmt{lang.GetS(g.local(), "T", g.intExpr(1))}
	case 3:
		return []lang.Stmt{lang.PutS("T", lang.Key(g.intExpr(1)), g.value(2))}
	case 4:
		return []lang.Stmt{lang.DelS("T", g.intExpr(1))}
	case 5:
		if depth < 2 {
			return []lang.Stmt{lang.IfElse(g.boolExpr(1), g.block(depth+1), g.block(depth+1))}
		}
	case 6:
		if depth < 2 {
			return []lang.Stmt{lang.ForS("i", lang.C(0), lang.C(int64(g.src.intn(4))), g.block(depth+1)...)}
		}
	case 7:
		return []lang.Stmt{lang.EmitS(fmt.Sprint("out", g.src.intn(3)), g.value(2))}
	case 8, 9, 10:
		// A record handed on, then updated through the local it came from;
		// half the time the record is one the frame owns, a literal.
		if g.budget < 1 {
			break
		}
		a, b := g.local(), g.local()
		var out []lang.Stmt
		if g.budget >= 2 && g.src.intn(2) == 0 {
			out = append(out, lang.Set(a, lang.RecE(lang.F("x", g.intExpr(0)), lang.F("y", g.intExpr(0)))))
		}
		switch g.src.intn(5) {
		case 0:
			out = append(out, lang.Set(b, lang.L(a)))
		case 1:
			out = append(out, lang.PutS("T", lang.Key(g.intExpr(0)), lang.L(a)))
		case 2:
			out = append(out, lang.Set(b, lang.RecE(lang.F("r", lang.L(a)), lang.F("x", g.intExpr(0)))))
		case 3:
			out = append(out, lang.SetF(b, "r", lang.L(a)))
		default:
			out = append(out, lang.EmitS("out0", lang.L(a)))
		}
		out = append(out, lang.SetF(a, g.field(), g.intExpr(1)))
		g.budget -= len(out) - 1
		return out
	}
	return []lang.Stmt{lang.Set(g.local(), g.value(2))}
}

// value is an expression whose result a statement keeps.
func (g *progGen) value(depth int) lang.Expr {
	switch g.src.intn(5) {
	case 0:
		return g.intExpr(depth)
	case 1:
		fields := []lang.FieldInit{lang.F("x", g.intExpr(depth-1)), lang.F("y", g.intExpr(depth-1))}
		if depth > 0 && g.src.intn(2) == 0 {
			fields = append(fields, lang.F("r", g.value(depth-1)))
		}
		return lang.RecE(fields...)
	case 2:
		return lang.Fld(lang.L(g.local()), "r")
	default:
		return lang.L(g.local())
	}
}

func (g *progGen) intExpr(depth int) lang.Expr {
	n := 7
	if depth <= 0 {
		n = 4
	}
	switch g.src.intn(n) {
	case 0:
		return lang.C(int64(g.src.intn(5)) - 1)
	case 1:
		return lang.P([]string{"p", "q"}[g.src.intn(2)])
	case 2:
		return lang.Fld(lang.L(g.local()), g.field())
	case 3:
		return lang.L("i")
	case 4:
		return lang.Add(g.intExpr(depth-1), g.intExpr(depth-1))
	case 5:
		return lang.Mul(g.intExpr(depth-1), g.intExpr(depth-1))
	default:
		return lang.Mod(g.intExpr(depth-1), g.intExpr(depth-1))
	}
}

func (g *progGen) boolExpr(depth int) lang.Expr {
	n := 5
	if depth <= 0 {
		n = 2
	}
	switch g.src.intn(n) {
	case 0:
		return lang.Lt(g.intExpr(depth), g.intExpr(depth))
	case 1:
		return lang.Eq(g.value(depth), g.value(depth))
	case 2:
		return lang.And(g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 3:
		return lang.Or(g.boolExpr(depth-1), g.boolExpr(depth-1))
	default:
		return lang.Neg(g.boolExpr(depth - 1))
	}
}

// frameRun runs p on fr with the inputs bound as lang.Run binds them.
func frameRun(fr *lang.Frame, p *lang.Program, inputs map[string]value.Value, kv lang.KV) (*lang.Result, error) {
	args, err := p.Bind(nil, inputs)
	if err != nil {
		return nil, err
	}
	return fr.Run(p, args, kv)
}
