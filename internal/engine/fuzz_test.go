package engine

import (
	"math/rand"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// Engine-level fuzzing: programs with arbitrary read/write interleavings —
// including read-own-write aliasing the profiles cannot always predict —
// must still execute to completion deterministically. Profile mispredicts
// surface as guard violations; the MF no-progress fallback (sequential
// unguarded re-execution) guarantees liveness; determinism must survive all
// of it.

// selfRefProg reads a cell, writes a cell derived from it, then reads THAT
// cell back and writes its derivative — a two-hop chain whose second hop
// aliases the transaction's own first write whenever the store links them.
func selfRefProg() *lang.Program {
	return &lang.Program{
		Name:   "selfref",
		Params: []lang.Param{lang.IntParam("k", 0, 15), lang.IntParam("v", 0, 15)},
		Body: []lang.Stmt{
			lang.GetS("a", "G", lang.P("k")),
			lang.Set("k2", lang.Mod(lang.Fld(lang.L("a"), "v"), lang.C(16))),
			lang.PutS("G", lang.Key(lang.L("k2")), lang.RecE(lang.F("v", lang.P("v")))),
			// Read back a cell that may or may not be the one just written.
			lang.GetS("b", "G", lang.Mod(lang.Add(lang.L("k2"), lang.P("v")), lang.C(16))),
			lang.PutS("G", lang.Key(lang.Mod(lang.Fld(lang.L("b"), "v"), lang.C(16))),
				lang.RecE(lang.F("v", lang.Add(lang.P("v"), lang.C(1))))),
		},
	}
}

func fuzzEngineRegistry(t testing.TB) *Registry {
	t.Helper()
	schema := lang.NewSchema(lang.TableSpec{Name: "G", KeyArity: 1})
	reg, err := NewRegistry(schema, selfRefProg())
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func fuzzStore() *store.Store {
	st := store.New()
	r := rand.New(rand.NewSource(1234))
	for i := int64(0); i < 16; i++ {
		st.Put(0, value.NewKey("G", value.Int(i)),
			value.Record(map[string]value.Value{"v": value.Int(r.Int63n(16))}))
	}
	return st
}

func fuzzBatches(seed int64, batches, perBatch int) [][]Request {
	r := rand.New(rand.NewSource(seed))
	var out [][]Request
	seq := uint64(0)
	for b := 0; b < batches; b++ {
		var batch []Request
		for i := 0; i < perBatch; i++ {
			seq++
			batch = append(batch, Request{Seq: seq, TxName: "selfref",
				Inputs: map[string]value.Value{
					"k": value.Int(r.Int63n(16)), "v": value.Int(r.Int63n(16)),
				}})
		}
		out = append(out, batch)
	}
	return out
}

// TestFuzzEngineSurvivesMispredictions: the aliasing workload must complete
// every batch (fallback liveness) with a deterministic outcome across
// worker counts, fail modes and repeated runs.
func TestFuzzEngineSurvivesMispredictions(t *testing.T) {
	reg := fuzzEngineRegistry(t)
	batches := fuzzBatches(9, 8, 25)
	for _, fail := range []FailMode{FailReenqueue, FailSequential} {
		t.Run(fail.String(), func(t *testing.T) {
			var first uint64
			firstAborts := -1
			for _, workers := range []int{1, 4, 8} {
				st := fuzzStore()
				e := New(reg, st, Config{Workers: workers, Fail: fail})
				aborts := 0
				for _, b := range batches {
					res, err := e.ExecuteBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					aborts += res.Aborts
					for _, o := range res.Outcomes {
						if o.Done.IsZero() || o.Pending {
							t.Fatalf("uncommitted outcome %+v", o)
						}
					}
				}
				h := st.StateHash(st.Epoch())
				if firstAborts < 0 {
					first, firstAborts = h, aborts
					continue
				}
				if h != first {
					t.Fatalf("state diverged with %d workers", workers)
				}
				if aborts != firstAborts {
					t.Fatalf("aborts diverged: %d vs %d", aborts, firstAborts)
				}
			}
		})
	}
}

// TestReadOwnWriteExactMatchPredicted: the direct (syntactically identical
// key) read-own-write pattern must be handled by the profile itself — no
// aborts at all.
func TestReadOwnWriteExactMatchPredicted(t *testing.T) {
	schema := lang.NewSchema(lang.TableSpec{Name: "G", KeyArity: 1})
	p := &lang.Program{
		Name:   "rmw",
		Params: []lang.Param{lang.IntParam("k", 0, 15)},
		Body: []lang.Stmt{
			lang.PutS("G", lang.Key(lang.P("k")), lang.RecE(lang.F("v", lang.C(7)))),
			lang.GetS("a", "G", lang.P("k")), // reads own write: v == 7
			lang.PutS("G", lang.Key(lang.Fld(lang.L("a"), "v")),
				lang.RecE(lang.F("v", lang.C(1)))),
		},
	}
	reg, err := NewRegistry(schema, p)
	if err != nil {
		t.Fatal(err)
	}
	// The second write's key is statically 7: the profile needs no pivot.
	if reg.Classes["rmw"] != 2 { // ClassIT
		t.Fatalf("class = %v, want IT (own write resolved symbolically)", reg.Classes["rmw"])
	}
	st := fuzzStore()
	e := New(reg, st, Config{Workers: 2})
	res, err := e.ExecuteBatch([]Request{{Seq: 1, TxName: "rmw",
		Inputs: map[string]value.Value{"k": value.Int(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0", res.Aborts)
	}
	rec, _ := st.Get(st.Epoch(), value.NewKey("G", value.Int(7)))
	if f, _ := rec.Field("v"); f.MustInt() != 1 {
		t.Fatalf("G/7 = %v", rec)
	}
}
