package engine_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/tpcc"
)

// comparableOutcome is what of an outcome two runs of the same batches must agree
// on: everything but the wall-clock fields.
type comparableOutcome struct {
	Seq        uint64
	TxName     string
	Aborts     int
	DirectKeys int
	Emitted    map[string]value.Value
	ReadSet    []engine.Access
	WriteSet   []engine.Access
}

// equal compares emitted values with Equal: a value holds its string bytes
// behind a pointer, which reflect.DeepEqual would compare by address.
func (o comparableOutcome) equal(p comparableOutcome) bool {
	return o.Seq == p.Seq && o.TxName == p.TxName && o.Aborts == p.Aborts && o.DirectKeys == p.DirectKeys &&
		maps.EqualFunc(o.Emitted, p.Emitted, value.Value.Equal) &&
		slices.Equal(o.ReadSet, p.ReadSet) && slices.Equal(o.WriteSet, p.WriteSet)
}

func comparableOutcomes(res *engine.BatchResult) []comparableOutcome {
	out := make([]comparableOutcome, len(res.Outcomes))
	for i, o := range res.Outcomes {
		out[i] = comparableOutcome{o.Seq, o.TxName, o.Aborts, o.DirectKeys, o.Emitted, o.ReadSet, o.WriteSet}
	}
	return out
}

// TestFrameReuseInvisible runs random TPC-C and RUBiS batches, contended
// enough to abort and re-prepare, through an engine that reuses its
// execution frames and through one that builds everything fresh for every
// transaction. State, outcomes, outputs, footprints and abort counts must be
// equal, and nothing an outcome holds may be shared with another
// transaction's: each outcome is scribbled over with a mark of its own and
// must still hold it after all the others were. The in-place workload has
// every transaction update one of a few rows through several SetFields, so
// that frames update the same rows in place run after run.
func TestFrameReuseInvisible(t *testing.T) {
	tcfg := tpcc.Config{Warehouses: 1, Items: 40, CustomersPerDistrict: 10, OrderLinesMin: 5, OrderLinesMax: 15}
	for _, w := range []testWorkload{tpccWorkload(tcfg, 30, 5), rubisBrowseWorkload(60, 50, 5), inPlaceWorkload(20, 5)} {
		reg, err := engine.NewRegistry(w.schema, w.programs...)
		if err != nil {
			t.Fatal(err)
		}
		batches := w.batches(5)
		for _, fail := range []engine.FailMode{engine.FailReenqueue, engine.FailSequential} {
			for _, workers := range []int{1, 2, 4} {
				for _, record := range []bool{false, true} {
					cfg := engine.Config{Workers: workers, Fail: fail, RecordFootprints: record}
					t.Run(fmt.Sprintf("%s/%s/workers=%d/footprints=%v", w.name, cfg.VariantName(), workers, record), func(t *testing.T) {
						stReuse, stFresh := store.New(), store.New()
						w.populate(stReuse)
						w.populate(stFresh)
						reuse := engine.New(reg, stReuse, cfg)
						fresh := engine.New(reg, stFresh, cfg)
						engine.UseFreshFrames(fresh)
						aborts := 0
						for b, batch := range batches {
							got, err := reuse.ExecuteBatch(batch)
							if err != nil {
								t.Fatal(err)
							}
							want, err := fresh.ExecuteBatch(batch)
							if err != nil {
								t.Fatal(err)
							}
							if got.Aborts != want.Aborts || got.FailRound != want.FailRound {
								t.Fatalf("batch %d: reused frames aborts=%d rounds=%d, fresh aborts=%d rounds=%d",
									b, got.Aborts, got.FailRound, want.Aborts, want.FailRound)
							}
							aborts += got.Aborts
							g, f := comparableOutcomes(got), comparableOutcomes(want)
							for i := range g {
								if !g[i].equal(f[i]) {
									t.Fatalf("batch %d outcome %d:\nreused frames: %+v\nfresh:         %+v", b, i, g[i], f[i])
								}
							}
							scribbleAndCheck(t, b, got)
						}
						if stReuse.StateHash(stReuse.Epoch()) != stFresh.StateHash(stFresh.Epoch()) {
							t.Fatal("state diverged between reused and fresh frames")
						}
						if aborts == 0 {
							t.Fatal("no transaction aborted: re-preparation was never exercised")
						}
					})
				}
			}
		}
	}
}

// scribbleAndCheck overwrites everything outcome i holds with a mark of i,
// for every i, then checks each outcome still holds its own mark: two that
// shared a map or a backing array would both show the later one's.
func scribbleAndCheck(t *testing.T, batch int, res *engine.BatchResult) {
	t.Helper()
	mark := func(i int) engine.Access { return engine.Access{Key: fmt.Sprint("scribble ", i), Val: "x"} }
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		for name := range o.Emitted {
			o.Emitted[name] = value.Int(int64(i))
		}
		o.Emitted["scribble"] = value.Int(int64(i))
		for j := range o.ReadSet {
			o.ReadSet[j] = mark(i)
		}
		for j := range o.WriteSet {
			o.WriteSet[j] = mark(i)
		}
	}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		for name, v := range o.Emitted {
			if !v.Equal(value.Int(int64(i))) {
				t.Fatalf("batch %d outcome %d: Emitted[%q] = %v after another outcome was written to", batch, i, name, v)
			}
		}
		for _, a := range append(append([]engine.Access{}, o.ReadSet...), o.WriteSet...) {
			if a != mark(i) {
				t.Fatalf("batch %d outcome %d: footprint %+v after another outcome was written to", batch, i, a)
			}
		}
	}
}

// inPlaceWorkload updates four accounts, directly (bump) and through two
// pointers (chase, redirect), which redirect then moves, so that later
// predictions through them go stale and abort. Each update sets two fields of the row: the first SetField
// copies the row into the frame, the second writes into that copy.
func inPlaceWorkload(txPerBatch int, seed int64) testWorkload {
	schema := lang.NewSchema(lang.TableSpec{Name: "ACC", KeyArity: 1}, lang.TableSpec{Name: "PTR", KeyArity: 1})
	update := func(key lang.Expr, amt lang.Expr) []lang.Stmt {
		return []lang.Stmt{
			lang.GetS("a", "ACC", key),
			lang.SetF("a", "bal", lang.Add(lang.Fld(lang.L("a"), "bal"), amt)),
			lang.SetF("a", "hits", lang.Add(lang.Fld(lang.L("a"), "hits"), lang.C(1))),
			lang.PutS("ACC", lang.Key(key), lang.L("a")),
			lang.SetF("a", "bal", lang.C(-1)), // after the Put: must not reach the store
			lang.EmitS("row", lang.L("a")),
		}
	}
	programs := []*lang.Program{
		{Name: "bump", Params: []lang.Param{lang.IntParam("k", 0, 3), lang.IntParam("amt", 1, 9)},
			Body: update(lang.P("k"), lang.P("amt"))},
		{Name: "chase", Params: []lang.Param{lang.IntParam("p", 0, 1), lang.IntParam("amt", 1, 9)},
			Body: append([]lang.Stmt{lang.GetS("ptr", "PTR", lang.P("p"))},
				update(lang.Fld(lang.L("ptr"), "to"), lang.P("amt"))...)},
		{Name: "redirect", Params: []lang.Param{lang.IntParam("p", 0, 1), lang.IntParam("to", 0, 3)},
			Body: append([]lang.Stmt{lang.GetS("ptr", "PTR", lang.P("p"))},
				append(update(lang.Fld(lang.L("ptr"), "to"), lang.C(1)),
					lang.SetF("ptr", "to", lang.P("to")),
					lang.SetF("ptr", "moves", lang.Add(lang.Fld(lang.L("ptr"), "moves"), lang.C(1))),
					lang.PutS("PTR", lang.Key(lang.P("p")), lang.L("ptr")),
				)...)},
	}
	r := rand.New(rand.NewSource(seed))
	return testWorkload{
		name: "in_place", txPerBatch: txPerBatch, schema: schema, programs: programs,
		populate: func(st *store.Store) {
			row := value.NewShape("bal", "hits")
			for k := int64(0); k < 4; k++ {
				st.Put(0, value.NewKey("ACC", value.Int(k)), row.Record(value.Int(100), value.Int(0)))
			}
			for p := int64(0); p < 2; p++ {
				st.Put(0, value.NewKey("PTR", value.Int(p)), value.Record(map[string]value.Value{"to": value.Int(p)}))
			}
		},
		next: func() (string, map[string]value.Value) {
			i := func(n int64) value.Value { return value.Int(r.Int63n(n)) }
			switch r.Intn(3) {
			case 0:
				return "bump", map[string]value.Value{"k": i(4), "amt": value.Int(1 + r.Int63n(9))}
			case 1:
				return "chase", map[string]value.Value{"p": i(2), "amt": value.Int(1 + r.Int63n(9))}
			default:
				return "redirect", map[string]value.Value{"p": i(2), "to": i(4)}
			}
		},
	}
}
