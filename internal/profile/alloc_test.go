package profile_test

import (
	"fmt"
	"runtime"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/store"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// TestInstantiateAllocs pins what instantiating a TPC-C profile allocates,
// pivot reads included, from args bound as the engine binds them: the
// KeySet, its one key array, the one string all its keys are substrings of
// and the pivot observations, and no per-key encoding, per-key parts,
// per-call pivot map or per-call evaluation state. The ceilings are 15 %
// above the bytes compiled profiles measured (1595 B and 5 allocations per
// newOrder, 2514 B and 24 per delivery; the count is logged, not held,
// because the race detector's sync.Pool drops a share of what is put back
// and moves it by about 0.6). Before, the tree
// walker through the input map took 1739 B and 49 allocations per newOrder,
// 5664 B and 44 per delivery, and before key parts moved to a stack buffer
// 6683 B and 52, 12632 B and 66; the figures repeat exactly.
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
		{"newOrder", gen.NewOrderInputs, 1595 * 1.15},
		{"delivery", gen.DeliveryInputs, 2514 * 1.15},
	} {
		t.Run(tc.prog, func(t *testing.T) {
			var prog *lang.Program
			for _, p := range tpcc.Programs(cfg) {
				if p.Name == tc.prog {
					prog = p
				}
			}
			if prog == nil {
				t.Fatalf("no program %s", tc.prog)
			}
			prof, err := symexec.Analyze(prog)
			if err != nil {
				t.Fatal(err)
			}
			prof.Params = prog.ParamNames()
			const runs = 200
			args := make([][]value.Value, runs)
			for i := range args {
				if args[i], err = prog.Bind(nil, tc.inputs()); err != nil {
					t.Fatal(err)
				}
			}
			// As the engine prepares it: split when the traversal is
			// pivot-free, so that the direct part comes first.
			split := prof.Class() == profile.ClassDT && prof.PivotFreeTraversal()
			instantiate := func(a []value.Value) {
				var err error
				if split {
					_, err = prof.InstantiateSplitArgs(a, view, nil)
				} else {
					_, err = prof.InstantiateArgs(a, view, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			instantiate(args[0])
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, a := range args {
				instantiate(a)
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

// TestCompiledFootprint pins what compiled profiles keep alive: compiling
// every TPC-C and RUBiS profile, by instantiating each once, must add under
// 256 KB of live heap. delivery's tree has 2047 nodes and 7161 accesses;
// compiled node by node without sharing it alone kept megabytes.
func TestCompiledFootprint(t *testing.T) {
	all, view := uncompiledCatalog(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, b := range all {
		if _, err := b.prof.InstantiateArgs(b.args, view, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(all)
	runtime.KeepAlive(view)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d profiles compiled: live heap +%d B", len(all), grew)
	if grew >= 256<<10 {
		t.Errorf("compiled profiles keep %d B alive, budget 256 KB", grew)
	}
}

// boundProfile is a profile not yet compiled and args it instantiates.
type boundProfile struct {
	prof *profile.Profile
	args []value.Value
}

// uncompiledCatalog analyzes every TPC-C (1 warehouse) and RUBiS program and
// finds args each profile instantiates over a store populated with both.
func uncompiledCatalog(t *testing.T) ([]boundProfile, profile.PivotReader) {
	tcfg, rcfg := tpcc.DefaultConfig(1), rubis.DefaultConfig()
	st := store.New()
	tpcc.Populate(st, tcfg)
	rubis.Populate(st, rcfg)
	view := st.ViewAt(st.Epoch())
	var all []boundProfile
	tgen, rgen := tpcc.NewGenerator(tcfg, 1), rubis.NewGenerator(rcfg, 1)
	for _, progs := range [][]*lang.Program{tpcc.Programs(tcfg), rubis.Programs(rcfg)} {
		for _, p := range progs {
			analyze := func() *profile.Profile {
				prof, err := symexec.Analyze(p)
				if err != nil {
					t.Fatal(err)
				}
				prof.Params = p.ParamNames()
				return prof
			}
			// Inputs the generators draw for p, or else random ones, that
			// instantiate; the probes compile a profile of their own.
			probe := analyze()
			var args []value.Value
			for i := 0; args == nil; i++ {
				var inputs map[string]value.Value
				if i < 1000 {
					for _, next := range []func() (string, map[string]value.Value){tgen.Next, rgen.Next} {
						if name, in := next(); name == p.Name {
							inputs = in
						}
					}
				} else {
					inputs = randomInputs(p, &byteSource{b: []byte(fmt.Sprint(i))})
				}
				if a, err := p.Bind(nil, inputs); err == nil && inputs != nil {
					if _, err := probe.InstantiateArgs(a, view, nil); err == nil {
						args = a
					}
				}
			}
			all = append(all, boundProfile{analyze(), args})
		}
	}
	return all, view
}
