package engine_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"prognosticator/internal/engine"
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
// must still hold it after all the others were.
func TestFrameReuseInvisible(t *testing.T) {
	tcfg := tpcc.Config{Warehouses: 1, Items: 40, CustomersPerDistrict: 10, OrderLinesMin: 5, OrderLinesMax: 15}
	for _, w := range []testWorkload{tpccWorkload(tcfg, 30, 5), rubisBrowseWorkload(60, 50, 5)} {
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
