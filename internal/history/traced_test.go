package history

import (
	"fmt"
	"testing"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// blindRegistry defines a single blind-write transaction: no reads, one
// unconditional overwrite. Blind writes are the blind spot of the untraced
// checker — without reads there is nothing to be fractured or stale, and
// WW edges are inferred FROM the assumed order, so any per-key write order
// looks consistent; only the lock trace pins the order they really ran in.
func blindRegistry(t testing.TB) *engine.Registry {
	t.Helper()
	schema := lang.NewSchema(lang.TableSpec{Name: "ACC", KeyArity: 1})
	set := &lang.Program{
		Name: "set",
		Params: []lang.Param{
			lang.IntParam("k", 0, 7),
			lang.IntParam("v", 0, 1000),
		},
		Body: []lang.Stmt{
			lang.PutS("ACC", lang.Key(lang.P("k")), lang.RecE(lang.F("bal", lang.P("v")))),
		},
	}
	reg, err := engine.NewRegistry(schema, set)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// runBlindBatch executes one batch of three conflicting blind writes to the
// same key and converts the result into a recorded history plus lock trace.
func runBlindBatch(t *testing.T, newEngine func(*engine.Registry, *store.Store, engine.Config) *engine.Engine) ([]Op, map[uint64][]locktable.Record, int64) {
	t.Helper()
	reg := blindRegistry(t)
	st := store.New()
	e := newEngine(reg, st, engine.Config{Workers: 4, RecordFootprints: true, TraceLocks: true})

	batch := []engine.Request{
		{Seq: 1, TxName: "set", Inputs: map[string]value.Value{"k": value.Int(0), "v": value.Int(101)}},
		{Seq: 2, TxName: "set", Inputs: map[string]value.Value{"k": value.Int(0), "v": value.Int(102)}},
		{Seq: 3, TxName: "set", Inputs: map[string]value.Value{"k": value.Int(0), "v": value.Int(103)}},
	}
	res, err := e.ExecuteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LockTrace) == 0 {
		t.Fatal("TraceLocks produced no lock trace")
	}

	ops := make([]Op, 0, len(res.Outcomes))
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		ops = append(ops, Op{
			ID:     fmt.Sprintf("b1/%d", o.Seq),
			Index:  1,
			Seq:    o.Seq,
			Name:   o.TxName,
			Class:  o.Class,
			Round:  o.Aborts,
			Reads:  o.ReadSet,
			Writes: o.WriteSet,
		})
	}
	rec, ok := st.Get(st.Epoch(), value.NewKey("ACC", value.Int(0)))
	if !ok {
		t.Fatal("key not written")
	}
	final, _ := rec.Field("bal")
	return ops, map[uint64][]locktable.Record{1: res.LockTrace}, final.MustInt()
}

// TestCheckTracedAcceptsEngineTrace is the positive half of the traced
// oracle's mutation test: a healthy engine run — engine -> BatchResult.
// LockTrace -> both checkers — is accepted on either pool, and the final
// state is the agreed-last write. The negative half (planted LIFO grants
// rejected as a DSG cycle) drives the lock table directly:
// locktable_test.TestCheckTracedCatchesLIFOGrants.
func TestCheckTracedAcceptsEngineTrace(t *testing.T) {
	for name, newEngine := range map[string]func(*engine.Registry, *store.Store, engine.Config) *engine.Engine{
		"threads": engine.New, "virtual": engine.NewSim,
	} {
		t.Run(name, func(t *testing.T) {
			ops, traces, final := runBlindBatch(t, newEngine)
			if err := Check(ops, nil); err != nil {
				t.Fatalf("untraced checker rejected a correct run: %v", err)
			}
			if err := CheckTraced(ops, traces, nil); err != nil {
				t.Fatalf("traced checker rejected a correct run: %v", err)
			}
			if final != 103 {
				t.Fatalf("correct run final value = %d, want the agreed-last write 103", final)
			}
		})
	}
}

// TestCheckTracedConsistentWithUntraced: on a workload with reads, a trace
// in agreed order must not change the verdict.
func TestCheckTracedEmptyTrace(t *testing.T) {
	// Ops without any lock trace fall back to agreed (Seq) order: the
	// traced checker degenerates to the untraced one.
	ops := []Op{
		{ID: "a", Index: 1, Seq: 1, Writes: []engine.Access{{Key: "x", Val: "v1"}}},
		{ID: "b", Index: 1, Seq: 2, Reads: []engine.Access{{Key: "x", Val: "v1"}},
			Writes: []engine.Access{{Key: "x", Val: "v2"}}},
	}
	if err := CheckTraced(ops, nil, nil); err != nil {
		t.Fatalf("traced checker with no traces rejected a serial history: %v", err)
	}
}
