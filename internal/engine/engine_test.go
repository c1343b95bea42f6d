package engine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// The test workload is a miniature bank with a dependent "chase" transaction
// (follows a pointer read from the store — classic DT), an independent
// "deposit" (IT) and a read-only "audit" (ROT).

func bankSchema() *lang.Schema {
	return lang.NewSchema(
		lang.TableSpec{Name: "ACC", KeyArity: 1},
		lang.TableSpec{Name: "PTR", KeyArity: 1},
		lang.TableSpec{Name: "LOG", KeyArity: 2},
	)
}

// deposit adds amt to account k. IT: key-set depends only on inputs.
func depositProg() *lang.Program {
	return &lang.Program{
		Name:   "deposit",
		Params: []lang.Param{lang.IntParam("k", 0, 99), lang.IntParam("amt", 1, 100)},
		Body: []lang.Stmt{
			lang.GetS("a", "ACC", lang.P("k")),
			lang.SetF("a", "bal", lang.Add(lang.Fld(lang.L("a"), "bal"), lang.P("amt"))),
			lang.PutS("ACC", lang.Key(lang.P("k")), lang.L("a")),
		},
	}
}

// chase reads PTR/p to find a target account, then deposits there. DT: the
// written key depends on the pivot PTR/p.target.
func chaseProg() *lang.Program {
	return &lang.Program{
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
}

// repoint changes PTR/p to a new target. IT, but invalidates chase pivots.
func repointProg() *lang.Program {
	return &lang.Program{
		Name:   "repoint",
		Params: []lang.Param{lang.IntParam("p", 0, 9), lang.IntParam("to", 0, 99)},
		Body: []lang.Stmt{
			lang.GetS("ptr", "PTR", lang.P("p")),
			lang.SetF("ptr", "target", lang.P("to")),
			lang.PutS("PTR", lang.Key(lang.P("p")), lang.L("ptr")),
		},
	}
}

// redirect is a DT that both follows PTR/p (pivot) and repoints it: it
// increments the current target account, then retargets the pointer. Used
// to invalidate the pivot predictions of later dependent transactions.
func redirectProg() *lang.Program {
	return &lang.Program{
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
}

// audit reads one account. ROT.
func auditProg() *lang.Program {
	return &lang.Program{
		Name:   "audit",
		Params: []lang.Param{lang.IntParam("k", 0, 99)},
		Body: []lang.Stmt{
			lang.GetS("a", "ACC", lang.P("k")),
			lang.EmitS("bal", lang.Fld(lang.L("a"), "bal")),
		},
	}
}

func bankRegistry(t testing.TB) *Registry {
	t.Helper()
	reg, err := NewRegistry(bankSchema(), depositProg(), chaseProg(), repointProg(), redirectProg(), auditProg())
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func bankStore() *store.Store {
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

func req(seq uint64, tx string, inputs map[string]value.Value) Request {
	return Request{Seq: seq, TxName: tx, Inputs: inputs}
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

func TestRegistryClassification(t *testing.T) {
	reg := bankRegistry(t)
	cases := map[string]profile.Class{
		"deposit": profile.ClassIT,
		"chase":   profile.ClassDT,
		"repoint": profile.ClassIT,
		"audit":   profile.ClassROT,
	}
	for tx, want := range cases {
		got, err := reg.Class(tx)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("class(%s) = %v, want %v", tx, got, want)
		}
	}
	if _, err := reg.Class("nope"); err == nil {
		t.Fatal("unknown tx class must error")
	}
	if tables := reg.Tables["chase"]; len(tables) != 2 || tables[0] != "ACC" || tables[1] != "PTR" {
		t.Fatalf("chase tables = %v", tables)
	}
}

func TestSimpleBatchCommits(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Workers: 4})
	res, err := e.ExecuteBatch([]Request{
		req(1, "deposit", ival("k", 1, "amt", 10)),
		req(2, "deposit", ival("k", 2, "amt", 20)),
		req(3, "deposit", ival("k", 1, "amt", 5)), // conflicts with seq 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Fatalf("aborts = %d", res.Aborts)
	}
	if res.Updates != 3 || res.ROTs != 0 {
		t.Fatalf("counts = %d/%d", res.Updates, res.ROTs)
	}
	if got := bal(t, st, 1); got != 115 {
		t.Fatalf("acc1 = %d", got)
	}
	if got := bal(t, st, 2); got != 120 {
		t.Fatalf("acc2 = %d", got)
	}
	for _, o := range res.Outcomes {
		if o.Done.IsZero() || o.Pending {
			t.Fatalf("outcome not committed: %+v", o)
		}
	}
}

func TestROTSeesPreviousBatchSnapshot(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Workers: 2})
	// Batch 1 deposits into account 7.
	if _, err := e.ExecuteBatch([]Request{req(1, "deposit", ival("k", 7, "amt", 50))}); err != nil {
		t.Fatal(err)
	}
	// Batch 2 deposits again AND audits: the audit must see the state
	// after batch 1 (150), not after batch 2's own deposit (200).
	res, err := e.ExecuteBatch([]Request{
		req(2, "deposit", ival("k", 7, "amt", 50)),
		req(3, "audit", ival("k", 7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var audit *TxOutcome
	for i := range res.Outcomes {
		if res.Outcomes[i].TxName == "audit" {
			audit = &res.Outcomes[i]
		}
	}
	if audit == nil || audit.Emitted == nil {
		t.Fatal("audit outcome missing")
	}
	if got := audit.Emitted["bal"].MustInt(); got != 150 {
		t.Fatalf("audit saw %d, want 150 (previous-batch snapshot)", got)
	}
	if got := bal(t, st, 7); got != 200 {
		t.Fatalf("final balance = %d", got)
	}
}

func TestDependentTransactionCommits(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Workers: 4})
	// chase p=3 follows PTR/3 -> ACC/30.
	res, err := e.ExecuteBatch([]Request{req(1, "chase", ival("p", 3, "amt", 25))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Fatalf("aborts = %d", res.Aborts)
	}
	if got := bal(t, st, 30); got != 125 {
		t.Fatalf("ACC/30 = %d", got)
	}
}

// TestDTFirstReorderingAvoidsAbort: an IT (repoint) that invalidates a
// chase's pivot does NOT cause an abort, because DTs are enqueued ahead of
// ITs exactly to shrink this window (§III-C). The chase lands on the OLD
// target and the repoint applies afterwards.
func TestDTFirstReorderingAvoidsAbort(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Workers: 4})
	res, err := e.ExecuteBatch([]Request{
		req(1, "repoint", ival("p", 3, "to", 55)),
		req(2, "chase", ival("p", 3, "amt", 25)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0 (DT-first reordering)", res.Aborts)
	}
	if got := bal(t, st, 30); got != 125 {
		t.Fatalf("ACC/30 = %d, want 125 (chase executed before repoint)", got)
	}
	// The pointer still ends up redirected.
	ptr, _ := st.Get(st.Epoch(), value.NewKey("PTR", value.Int(3)))
	if f, _ := ptr.Field("target"); f.MustInt() != 55 {
		t.Fatalf("PTR/3 = %v", ptr)
	}
}

// TestPivotInvalidationAborts builds the paper's core abort scenario: an
// earlier DT (redirect) changes the pivot a later chase depends on, so the
// chase must fail validation and be re-executed against the new target.
func TestPivotInvalidationAborts(t *testing.T) {
	for _, failMode := range []FailMode{FailSequential, FailReenqueue} {
		t.Run(failMode.String(), func(t *testing.T) {
			reg := bankRegistry(t)
			st := bankStore()
			e := New(reg, st, Config{Workers: 4, Fail: failMode})
			// Initial PTR/3 -> ACC/30. redirect(seq1) bumps ACC/30 and
			// repoints PTR/3 -> ACC/55; chase(seq2) prepared against the
			// pre-batch snapshot (target 30) shares the PTR/3 queue, so it
			// executes after redirect and sees target 55 != 30 -> abort.
			res, err := e.ExecuteBatch([]Request{
				req(1, "redirect", ival("p", 3, "to", 55)),
				req(2, "chase", ival("p", 3, "amt", 25)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborts != 1 {
				t.Fatalf("aborts = %d, want 1", res.Aborts)
			}
			if res.FailRound == 0 {
				t.Fatal("expected a failed-transaction round")
			}
			// redirect bumped the old target; the retried chase must land
			// on the NEW target.
			if got := bal(t, st, 30); got != 101 {
				t.Fatalf("ACC/30 = %d, want 101", got)
			}
			if got := bal(t, st, 55); got != 125 {
				t.Fatalf("ACC/55 = %d, want 125", got)
			}
			chase := res.Outcomes[1]
			if chase.Aborts != 1 || chase.Done.IsZero() {
				t.Fatalf("chase outcome = %+v", chase)
			}
		})
	}
}

func TestReconModeDetectsStaleKeySet(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Workers: 4, Prepare: PrepareRecon, Fail: FailReenqueue})
	res, err := e.ExecuteBatch([]Request{
		req(1, "redirect", ival("p", 3, "to", 55)),
		req(2, "chase", ival("p", 3, "amt", 25)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1 (guard violation)", res.Aborts)
	}
	if got := bal(t, st, 55); got != 125 {
		t.Fatalf("ACC/55 = %d, want 125", got)
	}
}

func TestVariantNamesAndDefaults(t *testing.T) {
	cases := map[string]Config{
		"MQ-MF":   {Queue: QueueMulti, Fail: FailReenqueue},
		"MQ-SF":   {Queue: QueueMulti, Fail: FailSequential},
		"1Q-MF":   {Queue: QueueSingle, Fail: FailReenqueue},
		"1Q-SF-R": {Queue: QueueSingle, Fail: FailSequential, Prepare: PrepareRecon},
	}
	for want, cfg := range cases {
		if got := cfg.withDefaults().VariantName(); got != want {
			t.Errorf("VariantName = %q, want %q", got, want)
		}
	}
	def := Config{}.withDefaults()
	if NewThreadPool(0).Workers() != 4 || NewVirtualPool(0).Workers() != 4 || def.Prepare != PrepareSE || def.Queue != QueueMulti || def.Fail != FailReenqueue {
		t.Fatalf("defaults = %+v", def)
	}
}

func TestUnknownTransactionErrors(t *testing.T) {
	reg := bankRegistry(t)
	e := New(reg, bankStore(), Config{})
	if _, err := e.ExecuteBatch([]Request{req(1, "ghost", nil)}); err == nil {
		t.Fatal("unknown transaction must error")
	}
}

// A request that lacks a declared input fails its batch, whether the input
// names a key or only a value, on every variant; a name that is no input is
// ignored.
func TestMissingInputErrors(t *testing.T) {
	for _, cfg := range []Config{{}, {Fail: FailSequential}, {Prepare: PrepareRecon}} {
		for _, inputs := range []map[string]value.Value{ival("amt", 5), ival("k", 5)} {
			e := New(bankRegistry(t), bankStore(), cfg)
			if _, err := e.ExecuteBatch([]Request{req(1, "deposit", ival("k", 1, "amt", 1)), req(2, "deposit", inputs)}); err == nil {
				t.Fatalf("%s: deposit%v must error", cfg.VariantName(), inputs)
			}
		}
		st := bankStore()
		e := New(bankRegistry(t), st, cfg)
		if _, err := e.ExecuteBatch([]Request{req(1, "deposit", ival("k", 1, "amt", 7, "memo", 3))}); err != nil {
			t.Fatalf("%s: an extra name must be ignored: %v", cfg.VariantName(), err)
		}
		if got := bal(t, st, 1); got != 107 {
			t.Fatalf("%s: ACC/1 = %d, want 107", cfg.VariantName(), got)
		}
	}
}

// randomBatches builds a deterministic random workload mixing all four
// transaction types, heavy on pointer churn to force aborts.
func randomBatches(seed int64, batches, perBatch int) [][]Request {
	r := rand.New(rand.NewSource(seed))
	var out [][]Request
	seq := uint64(0)
	for b := 0; b < batches; b++ {
		var batch []Request
		for i := 0; i < perBatch; i++ {
			seq++
			switch r.Intn(10) {
			case 0, 1:
				batch = append(batch, req(seq, "redirect", ival("p", r.Intn(10), "to", r.Intn(100))))
			case 2:
				batch = append(batch, req(seq, "repoint", ival("p", r.Intn(10), "to", r.Intn(100))))
			case 3, 4, 5, 6:
				batch = append(batch, req(seq, "chase", ival("p", r.Intn(10), "amt", 1+r.Intn(50))))
			case 7, 8:
				batch = append(batch, req(seq, "deposit", ival("k", r.Intn(100), "amt", 1+r.Intn(50))))
			default:
				batch = append(batch, req(seq, "audit", ival("k", r.Intn(100))))
			}
		}
		out = append(out, batch)
	}
	return out
}

func runAll(t *testing.T, ex Executor, st *store.Store, batches [][]Request) (uint64, int) {
	t.Helper()
	aborts := 0
	for _, b := range batches {
		res, err := ex.ExecuteBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		aborts += res.Aborts
	}
	return st.StateHash(st.Epoch()), aborts
}

// TestDeterminismAcrossWorkerCounts is the central replica-consistency
// property: the same batch sequence must produce the identical state hash
// regardless of worker parallelism, scheduling noise, or variant-internal
// concurrency.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	batches := randomBatches(42, 12, 40)
	type variant struct {
		name string
		cfg  Config
	}
	variants := []variant{
		{"MQ-MF", Config{Queue: QueueMulti, Fail: FailReenqueue}},
		{"MQ-SF", Config{Queue: QueueMulti, Fail: FailSequential}},
		{"1Q-MF", Config{Queue: QueueSingle, Fail: FailReenqueue}},
		{"MQ-MF-R", Config{Queue: QueueMulti, Fail: FailReenqueue, Prepare: PrepareRecon}},
	}
	reg := bankRegistry(t)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var hashes []uint64
			var aborts []int
			for _, workers := range []int{1, 2, 8} {
				cfg := v.cfg
				cfg.Workers = workers
				st := bankStore()
				h, a := runAll(t, New(reg, st, cfg), st, batches)
				hashes = append(hashes, h)
				aborts = append(aborts, a)
			}
			for i := 1; i < len(hashes); i++ {
				if hashes[i] != hashes[0] {
					t.Fatalf("state diverged across worker counts: %x vs %x", hashes[0], hashes[i])
				}
				if aborts[i] != aborts[0] {
					t.Fatalf("abort counts diverged across worker counts: %v", aborts)
				}
			}
		})
	}
}

// TestDeterminismRepeatedRuns re-runs one configuration many times; any
// scheduling-order dependence would show up as hash flapping.
func TestDeterminismRepeatedRuns(t *testing.T) {
	batches := randomBatches(7, 8, 60)
	reg := bankRegistry(t)
	var first uint64
	for run := 0; run < 5; run++ {
		st := bankStore()
		e := New(reg, st, Config{Workers: 8, Fail: FailReenqueue})
		h, _ := runAll(t, e, st, batches)
		if run == 0 {
			first = h
		} else if h != first {
			t.Fatalf("run %d diverged: %x vs %x", run, h, first)
		}
	}
}

// TestConservationInvariant: deposits and chases only add money; the total
// balance after every batch must equal initial + sum of committed amounts.
func TestConservationInvariant(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Workers: 6})
	total := func() int64 {
		var sum int64
		st.ForEach(st.Epoch(), func(k value.Encoded, v value.Value) {
			if f, ok := v.Field("bal"); ok {
				sum += f.MustInt()
			}
		})
		return sum
	}
	before := total()
	var expect int64
	batches := randomBatches(3, 6, 30)
	for _, b := range batches {
		for _, r := range b {
			switch r.TxName {
			case "deposit", "chase":
				expect += r.Inputs["amt"].MustInt()
			case "redirect":
				expect++ // redirect bumps its current target by 1
			}
		}
		if _, err := e.ExecuteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := total(); got != before+expect {
		t.Fatalf("conservation violated: got %d, want %d", got, before+expect)
	}
}

func TestEmptyBatch(t *testing.T) {
	reg := bankRegistry(t)
	e := New(reg, bankStore(), Config{})
	res, err := e.ExecuteBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 0 || res.Aborts != 0 {
		t.Fatalf("empty batch result = %+v", res)
	}
}

func TestOverlayGuardAndFlush(t *testing.T) {
	st := bankStore()
	w := st.WriterAt(st.BeginEpoch())
	ov := NewOverlay(w)
	kA := value.NewKey("ACC", value.Int(1))
	kB := value.NewKey("ACC", value.Int(2))
	ov.Guard([]value.Key{kA}, []value.Key{kA})
	if _, ok := ov.Get(kA); !ok {
		t.Fatal("guarded read of allowed key failed")
	}
	ov.Put(kA, value.Record(map[string]value.Value{"bal": value.Int(7)}))
	if v, ok := ov.Get(kA); !ok {
		t.Fatal("read-own-write failed")
	} else if f, _ := v.Field("bal"); f.MustInt() != 7 {
		t.Fatalf("own write = %v", v)
	}
	// Store unchanged before flush.
	if got, _ := st.Get(1, kA); func() int64 { f, _ := got.Field("bal"); return f.MustInt() }() != 100 {
		t.Fatal("write leaked before flush")
	}
	// Out-of-set access trips the guard.
	if _, ok := ov.Get(kB); ok {
		t.Fatal("out-of-set read should fail")
	}
	if !ov.Violated() {
		t.Fatal("violation not recorded")
	}
	// After violation everything reads empty and writes are ignored.
	ov.Put(kA, value.Record(map[string]value.Value{"bal": value.Int(999)}))
	if _, ok := ov.Get(kA); ok {
		t.Fatal("post-violation read should fail")
	}
}

func TestOverlayDeleteFlush(t *testing.T) {
	st := bankStore()
	e := st.BeginEpoch()
	w := st.WriterAt(e)
	ov := NewOverlay(w)
	kA := value.NewKey("ACC", value.Int(3))
	ov.Delete(kA)
	if _, ok := ov.Get(kA); ok {
		t.Fatal("overlay delete not visible")
	}
	ov.Flush(w)
	if _, ok := st.Get(e, kA); ok {
		t.Fatal("delete not flushed")
	}
}

func TestOverlayWriteGuardViolation(t *testing.T) {
	st := bankStore()
	w := st.WriterAt(st.BeginEpoch())
	ov := NewOverlay(w)
	kA := value.NewKey("ACC", value.Int(1))
	kB := value.NewKey("ACC", value.Int(2))
	// kB readable but not writable.
	ov.Guard([]value.Key{kA, kB}, []value.Key{kA})
	ov.Put(kB, value.Record(nil))
	if !ov.Violated() {
		t.Fatal("write outside write-set must violate")
	}
	ov2 := NewOverlay(w)
	ov2.Guard([]value.Key{kA, kB}, []value.Key{kA})
	ov2.Delete(kB)
	if !ov2.Violated() {
		t.Fatal("delete outside write-set must violate")
	}
}

func TestPrepareTimesRecorded(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Workers: 2})
	res, err := e.ExecuteBatch([]Request{req(1, "chase", ival("p", 1, "amt", 5))})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[0]
	if o.Prepare <= 0 {
		t.Fatalf("prepare time not recorded: %+v", o)
	}
	if o.Exec <= 0 {
		t.Fatalf("exec time not recorded: %+v", o)
	}
}

func TestManyConflictingChainsDrain(t *testing.T) {
	// A long chain of deposits on the same account must serialize and all
	// commit, regardless of worker count.
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Workers: 8})
	var batch []Request
	for i := 0; i < 200; i++ {
		batch = append(batch, req(uint64(i+1), "deposit", ival("k", 5, "amt", 1)))
	}
	res, err := e.ExecuteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Fatalf("aborts = %d", res.Aborts)
	}
	if got := bal(t, st, 5); got != 300 {
		t.Fatalf("balance = %d, want 300", got)
	}
}

func TestBatchResultEpochAdvances(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{})
	r1, err := e.ExecuteBatch([]Request{req(1, "deposit", ival("k", 1, "amt", 1))})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.ExecuteBatch([]Request{req(2, "deposit", ival("k", 1, "amt", 1))})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch != r1.Epoch+1 {
		t.Fatalf("epochs %d -> %d", r1.Epoch, r2.Epoch)
	}
	if fmt.Sprintf("%s", e.Name()) != "MQ-MF" {
		t.Fatalf("Name = %s", e.Name())
	}
}

// TestFingerprintPinned: fingerprints are recorded in chaos histories and
// compared across runs, so the bytes are pinned — against constants printed
// by the fmt-based formulation this replaced, and against that formulation
// itself over enough values to meet hashes with leading zeros.
func TestFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		v    value.Value
		want string
	}{
		{value.Value{}, "58a4d2dd6cb88e2c"},
		{value.Int(-42), "de5e4d17de016a82"},
		{value.Str("a/b"), "91effcb63cbad899"},
		{value.Record(map[string]value.Value{"quantity": value.Int(50), "ytd": value.Int(0)}), "1f6a103fd235a996"},
		{value.List(value.Int(1), value.Str("x")), "96219dbcbfa7ae68"},
	} {
		if got := Fingerprint(c.v); got != c.want {
			t.Errorf("Fingerprint(%v) = %s, want %s", c.v, got, c.want)
		}
	}
	padded := 0
	for i := int64(0); i < 2000; i++ {
		v := value.Int(i)
		h := fnv.New64a()
		fmt.Fprint(h, v.String())
		want := fmt.Sprintf("%016x", h.Sum64())
		if got := Fingerprint(v); got != want {
			t.Fatalf("Fingerprint(%v) = %s, want %s", v, got, want)
		}
		if want[0] == '0' {
			padded++
		}
	}
	if padded == 0 {
		t.Fatal("no fingerprint with a leading zero was checked")
	}
}

// TestReconKeySetOutlivesFrame: reconnaissance discovers a key-set by running
// the program on a frame, and the key-set stays with the task for the rest of
// the batch while the frame goes on to other transactions. The key lists must
// have left the frame, not point into its Reads and Writes buffers.
func TestReconKeySetOutlivesFrame(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	e := New(reg, st, Config{Prepare: PrepareRecon, Workers: 1})
	b, err := BeginBatch(e.pool, reg, st, nil, []Request{
		req(1, "chase", ival("p", 3, "amt", 10)),
		req(2, "deposit", ival("k", 7, "amt", 5)),
		req(3, "chase", ival("p", 4, "amt", 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.ViewAt(b.Res.Epoch - 1)
	render := func(ks *profile.KeySet) string {
		s := ""
		for _, k := range append(append([]value.Key{}, ks.Reads...), ks.Writes...) {
			s += string(k.Encode()) + " "
		}
		return s
	}
	var prepared []string
	for _, tx := range b.Tasks {
		if _, err := e.prepare(tx, snap, snap); err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, render(tx.KS))
	}
	if len(e.frames.free) != 1 {
		t.Fatalf("%d frames after three preparations on one goroutine, want the one reused", len(e.frames.free))
	}
	for i, tx := range b.Tasks {
		if got := render(tx.KS); got != prepared[i] {
			t.Errorf("key-set of %s(seq %d) changed under later preparations:\nnow:  %s\nthen: %s", tx.Req.TxName, tx.Req.Seq, got, prepared[i])
		}
		res, err := lang.Run(tx.Prog, tx.Req.Inputs, NewOverlay(snap))
		if err != nil {
			t.Fatal(err)
		}
		if want := render(&profile.KeySet{Reads: res.Reads, Writes: res.Writes}); prepared[i] != want {
			t.Errorf("key-set of %s(seq %d) = %s, a fresh run touches %s", tx.Req.TxName, tx.Req.Seq, prepared[i], want)
		}
	}
}

// TestRegistryRejectsSchemaMisuse exercises the lang.Schema.Validate path
// end-to-end: registration must reject unknown tables and key-arity
// mismatches before any analysis runs.
func TestRegistryRejectsSchemaMisuse(t *testing.T) {
	unknown := &lang.Program{
		Name:   "ghost",
		Params: []lang.Param{lang.IntParam("id", 0, 9)},
		Body:   []lang.Stmt{lang.GetS("x", "NOPE", lang.P("id"))},
	}
	if _, err := NewRegistry(bankSchema(), unknown); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("unknown table not rejected: %v", err)
	}

	arity := &lang.Program{
		Name:   "arity",
		Params: []lang.Param{lang.IntParam("id", 0, 9)},
		Body:   []lang.Stmt{lang.GetS("x", "ACC", lang.P("id"), lang.P("id"))},
	}
	if _, err := NewRegistry(bankSchema(), arity); err == nil || !strings.Contains(err.Error(), "expects 1 key part") {
		t.Fatalf("key-arity mismatch not rejected: %v", err)
	}
}
