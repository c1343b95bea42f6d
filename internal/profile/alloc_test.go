package profile_test

import (
	"runtime"
	"testing"

	"prognosticator/internal/profile"
	"prognosticator/internal/store"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/tpcc"
)

// TestInstantiateAllocs pins what instantiating a TPC-C profile allocates,
// pivot reads included: the KeySet, its one key array, the keys' encodings
// and the pivot observations, and no per-key parts or per-call pivot map.
// The ceilings are 15 % above what was measured when key parts moved to a
// stack buffer (1739 B and 49 allocations per newOrder, 5664 B and 44 per
// delivery; 6683 B and 52, 12632 B and 66 before, when every key kept its
// parts and each call had its own pivot map); the figures repeat exactly.
func TestInstantiateAllocs(t *testing.T) {
	cfg := tpcc.DefaultConfig(1)
	st := store.New()
	tpcc.Populate(st, cfg)
	view := st.ViewAt(st.Epoch())
	gen := tpcc.NewGenerator(cfg, 1)
	for _, tc := range []struct {
		prog       string
		inputs     func() map[string]value.Value
		maxBytesOp float64
	}{
		{"newOrder", gen.NewOrderInputs, 1739 * 1.15},
		{"delivery", gen.DeliveryInputs, 5664 * 1.15},
	} {
		t.Run(tc.prog, func(t *testing.T) {
			var prof *profile.Profile
			for _, p := range tpcc.Programs(cfg) {
				if p.Name == tc.prog {
					var err error
					if prof, err = symexec.Analyze(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			if prof == nil {
				t.Fatalf("no program %s", tc.prog)
			}
			const runs = 200
			inputs := make([]map[string]value.Value, runs)
			for i := range inputs {
				inputs[i] = tc.inputs()
			}
			// As the engine prepares it: split when the traversal is
			// pivot-free, so that the direct part comes first.
			split := prof.Class() == profile.ClassDT && prof.PivotFreeTraversal()
			instantiate := func(in map[string]value.Value) {
				var err error
				if split {
					_, err = prof.InstantiateSplit(in, view, nil)
				} else {
					_, err = prof.Instantiate(in, view)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			instantiate(inputs[0])
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, in := range inputs {
				instantiate(in)
			}
			runtime.ReadMemStats(&after)
			bytesOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
			allocsOp := float64(after.Mallocs-before.Mallocs) / runs
			t.Logf("%s: %.1f allocs/op, %.0f B/op", tc.prog, allocsOp, bytesOp)
			if bytesOp > tc.maxBytesOp {
				t.Errorf("%s: %.0f B per instantiation, budget %.0f", tc.prog, bytesOp, tc.maxBytesOp)
			}
		})
	}
}
