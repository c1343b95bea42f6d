package prognosticator_test

import (
	"testing"

	prog "prognosticator"
)

// The facade test exercises the public API end to end the way an external
// adopter would: declare a schema, author a program, analyze, execute.

func facadeSchema() *prog.Schema {
	return prog.NewSchema(prog.TableSpec{Name: "KV", KeyArity: 1})
}

func facadeProgram() *prog.Program {
	return &prog.Program{
		Name: "bump",
		Params: []prog.Param{
			prog.IntParam("k", 0, 99),
			prog.IntParam("by", 1, 10),
		},
		Body: []prog.Stmt{
			prog.GetS("cur", "KV", prog.P("k")),
			prog.SetF("cur", "n", prog.Add(prog.Fld(prog.L("cur"), "n"), prog.P("by"))),
			prog.PutS("KV", prog.KeyExpr(prog.P("k")), prog.L("cur")),
			prog.EmitS("n", prog.Fld(prog.L("cur"), "n")),
		},
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	reg, err := prog.NewRegistry(facadeSchema(), facadeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reg.Class("bump"); err != nil || got != prog.ClassIT {
		t.Fatalf("class = %v, %v", got, err)
	}
	st := prog.NewStore()
	st.Put(0, prog.NewKey("KV", prog.Int(5)),
		prog.RecV(map[string]prog.Value{"n": prog.Int(10)}))
	eng := prog.NewEngine(reg, st, prog.EngineConfig{Workers: 2})
	res, err := eng.ExecuteBatch([]prog.Request{
		{Seq: 1, TxName: "bump", Inputs: map[string]prog.Value{
			"k": prog.Int(5), "by": prog.Int(3)}},
		{Seq: 2, TxName: "bump", Inputs: map[string]prog.Value{
			"k": prog.Int(5), "by": prog.Int(4)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Fatalf("aborts = %d", res.Aborts)
	}
	if got := res.Outcomes[1].Emitted["n"].MustInt(); got != 17 {
		t.Fatalf("second bump emitted %d, want 17", got)
	}
	rec, ok := st.Get(st.Epoch(), prog.NewKey("KV", prog.Int(5)))
	if !ok {
		t.Fatal("key missing")
	}
	if n, _ := rec.Field("n"); n.MustInt() != 17 {
		t.Fatalf("final n = %v", n)
	}
}

func TestFacadeAnalysisAndProfileCodec(t *testing.T) {
	p, err := prog.Analyze(facadeProgram())
	if err != nil {
		t.Fatal(err)
	}
	data, err := prog.MarshalProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := prog.UnmarshalProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.TxName != "bump" || back.Class() != prog.ClassIT {
		t.Fatalf("round-tripped profile: %s %v", back.TxName, back.Class())
	}
	ks, err := back.Instantiate(map[string]prog.Value{
		"k": prog.Int(9), "by": prog.Int(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Writes) != 1 || ks.Writes[0].String() != "KV/i9" {
		t.Fatalf("writes = %v", ks.Writes)
	}
}

func TestFacadeBaselines(t *testing.T) {
	reg, err := prog.NewRegistry(facadeSchema(), facadeProgram())
	if err != nil {
		t.Fatal(err)
	}
	st := prog.NewStore()
	seq := prog.NewSEQ(reg, st)
	if _, err := seq.ExecuteBatch([]prog.Request{
		{Seq: 1, TxName: "bump", Inputs: map[string]prog.Value{
			"k": prog.Int(1), "by": prog.Int(2)}},
	}); err != nil {
		t.Fatal(err)
	}
	st2 := prog.NewStore()
	nodo := prog.NewNODO(reg, st2, prog.NewThreadPool(2))
	if nodo.Name() != "NODO" {
		t.Fatal("NODO name")
	}
	st3 := prog.NewStore()
	calvin := prog.NewCalvin(reg, st3, prog.NewVirtualPool(2), 5, "Calvin-50")
	if calvin.Name() != "Calvin-50" {
		t.Fatal("Calvin name")
	}
}

func TestFacadeSourceFormatting(t *testing.T) {
	out := prog.FormatSource(facadeProgram())
	if len(out) == 0 {
		t.Fatal("empty formatted source")
	}
}
