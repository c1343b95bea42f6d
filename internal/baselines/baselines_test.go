package baselines

import (
	"math/rand"
	"testing"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// Shared mini-workload: the same bank shapes as the engine tests.

func schema() *lang.Schema {
	return lang.NewSchema(
		lang.TableSpec{Name: "ACC", KeyArity: 1},
		lang.TableSpec{Name: "PTR", KeyArity: 1},
	)
}

func programs() []*lang.Program {
	deposit := &lang.Program{
		Name:   "deposit",
		Params: []lang.Param{lang.IntParam("k", 0, 99), lang.IntParam("amt", 1, 100)},
		Body: []lang.Stmt{
			lang.GetS("a", "ACC", lang.P("k")),
			lang.SetF("a", "bal", lang.Add(lang.Fld(lang.L("a"), "bal"), lang.P("amt"))),
			lang.PutS("ACC", lang.Key(lang.P("k")), lang.L("a")),
		},
	}
	chase := &lang.Program{
		Name:   "chase",
		Params: []lang.Param{lang.IntParam("p", 0, 9), lang.IntParam("amt", 1, 100)},
		Body: []lang.Stmt{
			lang.GetS("ptr", "PTR", lang.P("p")),
			lang.Set("tgt", lang.Fld(lang.L("ptr"), "target")),
			lang.GetS("a", "ACC", lang.L("tgt")),
			lang.SetF("a", "bal", lang.Add(lang.Fld(lang.L("a"), "bal"), lang.P("amt"))),
			lang.PutS("ACC", lang.Key(lang.L("tgt")), lang.L("a")),
		},
	}
	redirect := &lang.Program{
		Name:   "redirect",
		Params: []lang.Param{lang.IntParam("p", 0, 9), lang.IntParam("to", 0, 99)},
		Body: []lang.Stmt{
			lang.GetS("ptr", "PTR", lang.P("p")),
			lang.Set("tgt", lang.Fld(lang.L("ptr"), "target")),
			lang.GetS("a", "ACC", lang.L("tgt")),
			lang.SetF("a", "bal", lang.Add(lang.Fld(lang.L("a"), "bal"), lang.C(1))),
			lang.PutS("ACC", lang.Key(lang.L("tgt")), lang.L("a")),
			lang.SetF("ptr", "target", lang.P("to")),
			lang.PutS("PTR", lang.Key(lang.P("p")), lang.L("ptr")),
		},
	}
	audit := &lang.Program{
		Name:   "audit",
		Params: []lang.Param{lang.IntParam("k", 0, 99)},
		Body: []lang.Stmt{
			lang.GetS("a", "ACC", lang.P("k")),
			lang.EmitS("bal", lang.Fld(lang.L("a"), "bal")),
		},
	}
	return []*lang.Program{deposit, chase, redirect, audit}
}

func registry(t testing.TB) *engine.Registry {
	t.Helper()
	reg, err := engine.NewRegistry(schema(), programs()...)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func freshStore() *store.Store {
	st := store.New()
	for i := int64(0); i < 100; i++ {
		st.Put(0, value.NewKey("ACC", value.Int(i)),
			value.Record(map[string]value.Value{"bal": value.Int(100)}))
	}
	for p := int64(0); p < 10; p++ {
		st.Put(0, value.NewKey("PTR", value.Int(p)),
			value.Record(map[string]value.Value{"target": value.Int(p * 10)}))
	}
	return st
}

func ival(pairs ...any) map[string]value.Value {
	m := map[string]value.Value{}
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i].(string)] = value.Int(int64(pairs[i+1].(int)))
	}
	return m
}

func bal(t *testing.T, st *store.Store, acct int64) int64 {
	t.Helper()
	rec, ok := st.Get(st.Epoch(), value.NewKey("ACC", value.Int(acct)))
	if !ok {
		t.Fatalf("account %d missing", acct)
	}
	f, _ := rec.Field("bal")
	return f.MustInt()
}

func randomBatches(seed int64, batches, perBatch int) [][]engine.Request {
	r := rand.New(rand.NewSource(seed))
	var out [][]engine.Request
	seq := uint64(0)
	for b := 0; b < batches; b++ {
		var batch []engine.Request
		for i := 0; i < perBatch; i++ {
			seq++
			switch r.Intn(10) {
			case 0, 1:
				batch = append(batch, engine.Request{Seq: seq, TxName: "redirect",
					Inputs: ival("p", r.Intn(10), "to", r.Intn(100))})
			case 2, 3, 4, 5:
				batch = append(batch, engine.Request{Seq: seq, TxName: "chase",
					Inputs: ival("p", r.Intn(10), "amt", 1+r.Intn(50))})
			case 6, 7, 8:
				batch = append(batch, engine.Request{Seq: seq, TxName: "deposit",
					Inputs: ival("k", r.Intn(100), "amt", 1+r.Intn(50))})
			default:
				batch = append(batch, engine.Request{Seq: seq, TxName: "audit",
					Inputs: ival("k", r.Intn(100))})
			}
		}
		out = append(out, batch)
	}
	return out
}

func TestSEQBasics(t *testing.T) {
	reg := registry(t)
	st := freshStore()
	seq := NewSEQ(reg, st)
	if seq.Name() != "SEQ" {
		t.Fatalf("name = %q", seq.Name())
	}
	res, err := seq.ExecuteBatch([]engine.Request{
		{Seq: 1, TxName: "deposit", Inputs: ival("k", 1, "amt", 10)},
		{Seq: 2, TxName: "chase", Inputs: ival("p", 0, "amt", 5)},
		{Seq: 3, TxName: "audit", Inputs: ival("k", 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 || res.Updates != 2 || res.ROTs != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := bal(t, st, 1); got != 110 {
		t.Fatalf("acc1 = %d", got)
	}
	if got := bal(t, st, 0); got != 105 {
		t.Fatalf("acc0 = %d", got)
	}
	if _, err := seq.ExecuteBatch([]engine.Request{{Seq: 9, TxName: "nope"}}); err == nil {
		t.Fatal("unknown tx must error")
	}
}

func TestNODONeverAborts(t *testing.T) {
	reg := registry(t)
	st := freshStore()
	nodo := NewNODO(reg, st, engine.NewThreadPool(8))
	if nodo.Name() != "NODO" {
		t.Fatalf("name = %q", nodo.Name())
	}
	for _, batch := range randomBatches(5, 6, 50) {
		res, err := nodo.ExecuteBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborts != 0 {
			t.Fatalf("NODO aborted %d transactions", res.Aborts)
		}
		for _, o := range res.Outcomes {
			if o.Done.IsZero() || o.Pending {
				t.Fatalf("NODO left tx pending: %+v", o)
			}
		}
	}
}

// TestNODOMatchesSEQ: NODO's table-level conflict classes serialize every
// pair of same-table transactions in arrival order, and different-table
// transactions commute, so NODO's final state must equal SEQ's.
func TestNODOMatchesSEQ(t *testing.T) {
	reg := registry(t)
	batches := randomBatches(11, 8, 40)
	stSeq := freshStore()
	seq := NewSEQ(reg, stSeq)
	stNodo := freshStore()
	nodo := NewNODO(reg, stNodo, engine.NewThreadPool(8))
	for _, b := range batches {
		if _, err := seq.ExecuteBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := nodo.ExecuteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if stSeq.StateHash(stSeq.Epoch()) != stNodo.StateHash(stNodo.Epoch()) {
		t.Fatal("NODO state diverged from SEQ")
	}
}

func TestNODODeterministicAcrossWorkers(t *testing.T) {
	reg := registry(t)
	batches := randomBatches(13, 6, 40)
	var first uint64
	for i, workers := range []int{1, 4, 8} {
		st := freshStore()
		nodo := NewNODO(reg, st, engine.NewThreadPool(workers))
		for _, b := range batches {
			if _, err := nodo.ExecuteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		h := st.StateHash(st.Epoch())
		if i == 0 {
			first = h
		} else if h != first {
			t.Fatalf("NODO diverged with %d workers", workers)
		}
	}
}

func TestCalvinStalenessCausesAborts(t *testing.T) {
	reg := registry(t)
	st := freshStore()
	calvin := NewCalvin(reg, st, engine.NewThreadPool(4), 2, "Calvin-20")
	if calvin.Name() != "Calvin-20" {
		t.Fatalf("name = %q", calvin.Name())
	}
	// Batch 1: redirect PTR/3 from ACC/30 to ACC/55.
	if _, err := calvin.ExecuteBatch([]engine.Request{
		{Seq: 1, TxName: "redirect", Inputs: ival("p", 3, "to", 55)},
	}); err != nil {
		t.Fatal(err)
	}
	// Batch 2: chase via PTR/3. Calvin prepares it against a snapshot 2
	// epochs old — BEFORE the redirect — so the predicted target is 30,
	// execution reads 55, and the guard aborts it into the carry queue.
	res, err := calvin.ExecuteBatch([]engine.Request{
		{Seq: 2, TxName: "chase", Inputs: ival("p", 3, "amt", 25)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", res.Aborts)
	}
	if calvin.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", calvin.Pending())
	}
	var chase *engine.TxOutcome
	for i := range res.Outcomes {
		if res.Outcomes[i].TxName == "chase" {
			chase = &res.Outcomes[i]
		}
	}
	if chase == nil || !chase.Pending {
		t.Fatalf("chase outcome = %+v", chase)
	}
	// Batches 3..N: the carried chase is re-prepared each batch; once its
	// reconnaissance snapshot includes the redirect, it commits on ACC/55.
	committed := false
	for b := 0; b < 5 && !committed; b++ {
		res, err := calvin.ExecuteBatch(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			if o.TxName == "chase" && !o.Pending {
				committed = true
			}
		}
	}
	if !committed {
		t.Fatal("carried chase never committed")
	}
	if got := bal(t, st, 55); got != 125 { // +25 chase (redirect bumped the old target)
		t.Fatalf("ACC/55 = %d, want 125", got)
	}
	if got := bal(t, st, 30); got != 101 { // +1 redirect before repointing
		t.Fatalf("ACC/30 = %d, want 101", got)
	}
}

// A request that lacks a declared input fails Calvin's batch, as it fails
// the engine's.
func TestCalvinMissingInputErrors(t *testing.T) {
	for _, inputs := range []map[string]value.Value{ival("amt", 5), ival("p", 3)} {
		calvin := NewCalvin(registry(t), freshStore(), engine.NewThreadPool(2), 0, "Calvin-0")
		if _, err := calvin.ExecuteBatch([]engine.Request{{Seq: 1, TxName: "chase", Inputs: inputs}}); err == nil {
			t.Fatalf("chase%v must error", inputs)
		}
	}
}

func TestCalvinZeroStalenessNoAborts(t *testing.T) {
	// With staleness 0 Calvin prepares against the previous batch — only
	// same-batch invalidations can abort. A cross-batch redirect+chase
	// must commit cleanly.
	reg := registry(t)
	st := freshStore()
	calvin := NewCalvin(reg, st, engine.NewThreadPool(4), 0, "Calvin-0")
	if _, err := calvin.ExecuteBatch([]engine.Request{
		{Seq: 1, TxName: "redirect", Inputs: ival("p", 3, "to", 55)},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := calvin.ExecuteBatch([]engine.Request{
		{Seq: 2, TxName: "chase", Inputs: ival("p", 3, "amt", 25)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0", res.Aborts)
	}
	if got := bal(t, st, 55); got != 125 {
		t.Fatalf("ACC/55 = %d", got)
	}
}

func TestCalvinDeterministicAcrossWorkers(t *testing.T) {
	reg := registry(t)
	batches := randomBatches(17, 10, 40)
	var first uint64
	var firstAborts int
	for i, workers := range []int{1, 4, 8} {
		st := freshStore()
		calvin := NewCalvin(reg, st, engine.NewThreadPool(workers), 3, "Calvin-30")
		aborts := 0
		for _, b := range batches {
			res, err := calvin.ExecuteBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			aborts += res.Aborts
		}
		// Drain the carry queue.
		for calvin.Pending() > 0 {
			if _, err := calvin.ExecuteBatch(nil); err != nil {
				t.Fatal(err)
			}
		}
		h := st.StateHash(st.Epoch())
		if i == 0 {
			first, firstAborts = h, aborts
		} else {
			if h != first {
				t.Fatalf("Calvin diverged with %d workers", workers)
			}
			if aborts != firstAborts {
				t.Fatalf("Calvin abort count diverged: %d vs %d", aborts, firstAborts)
			}
		}
	}
}

// TestCalvinAbortsGrowWithStaleness reproduces the paper's Calvin-N trend:
// higher reconnaissance staleness, more aborts (Fig. 3b).
func TestCalvinAbortsGrowWithStaleness(t *testing.T) {
	reg := registry(t)
	batches := randomBatches(23, 15, 60)
	abortsAt := func(staleness uint64) int {
		st := freshStore()
		calvin := NewCalvin(reg, st, engine.NewThreadPool(4), staleness, "Calvin")
		total := 0
		for _, b := range batches {
			res, err := calvin.ExecuteBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Aborts
		}
		return total
	}
	low, high := abortsAt(0), abortsAt(8)
	if high <= low {
		t.Fatalf("aborts did not grow with staleness: %d (N=0) vs %d (N=8)", low, high)
	}
}

// TestEngineLowerAbortsThanCalvin reproduces the headline claim of §IV-B:
// Prognosticator's fresh server-side preparation aborts far less than
// Calvin's stale client-side reconnaissance on the same workload.
func TestEngineLowerAbortsThanCalvin(t *testing.T) {
	reg := registry(t)
	batches := randomBatches(29, 12, 60)
	stE := freshStore()
	eng := engine.New(reg, stE, engine.Config{Workers: 4})
	engAborts := 0
	for _, b := range batches {
		res, err := eng.ExecuteBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		engAborts += res.Aborts
	}
	stC := freshStore()
	calvin := NewCalvin(reg, stC, engine.NewThreadPool(4), 10, "Calvin-100")
	calvinAborts := 0
	for _, b := range batches {
		res, err := calvin.ExecuteBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		calvinAborts += res.Aborts
	}
	if engAborts >= calvinAborts {
		t.Fatalf("engine aborts (%d) should be below Calvin-100 aborts (%d)", engAborts, calvinAborts)
	}
}
