package lint

import (
	"math/rand"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/sym"
	"prognosticator/internal/symexec"
	"prognosticator/internal/taint"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// --- DBM primitives ---

func TestZoneClosure(t *testing.T) {
	// Three variables besides the zero var: closure must derive the
	// transitive bound v1 - 0 ≤ 8 from v1 - v2 ≤ 5 and v2 - 0 ≤ 3.
	z := newZone(3)
	z.tighten(1, 2, 5)
	z.tighten(2, 0, 3)
	z.close()
	if z.Bottom() {
		t.Fatal("consistent zone closed to ⊥")
	}
	if got := z.at(1, 0); got != 8 {
		t.Errorf("closure: v1 - 0 ≤ %d, want 8", got)
	}
	// Closure is idempotent.
	before := append([]int64(nil), z.m...)
	z.close()
	for i := range before {
		if z.m[i] != before[i] {
			t.Fatalf("closure not idempotent at entry %d: %d -> %d", i, before[i], z.m[i])
		}
	}
}

func TestZoneBottomDetection(t *testing.T) {
	// v1 - v2 ≤ -1 and v2 - v1 ≤ 0 is the empty zone (v1 < v2 ∧ v2 ≤ v1).
	z := newZone(3)
	z.tighten(1, 2, -1)
	z.tighten(2, 1, 0)
	z.close()
	if !z.Bottom() {
		t.Error("negative cycle not detected as ⊥")
	}
}

func TestZoneJoin(t *testing.T) {
	a := newZone(2)
	a.tighten(1, 0, 5)
	a.tighten(0, 1, 0) // v1 ∈ [0, 5]
	a.close()
	b := newZone(2)
	b.tighten(1, 0, 9)
	b.tighten(0, 1, -7) // v1 ∈ [7, 9]
	b.close()
	j := joinZ(a.clone(), b.clone())
	if got := j.at(1, 0); got != 9 {
		t.Errorf("join upper: v1 ≤ %d, want 9", got)
	}
	if got := j.at(0, 1); got != 0 {
		t.Errorf("join lower: -v1 ≤ %d, want 0", got)
	}
	// ⊥ is the identity of join, in both positions.
	bot := newZone(2)
	bot.bottom = true
	if j2 := joinZ(bot.clone(), a); j2.Bottom() || j2.at(1, 0) != 5 {
		t.Errorf("join(⊥, a) lost a")
	}
	if j3 := joinZ(a.clone(), bot); j3.Bottom() || j3.at(1, 0) != 5 {
		t.Errorf("join(a, ⊥) lost a")
	}
}

func TestZoneWideningTerminates(t *testing.T) {
	// The accumulator forces widening along the back edge; the relational
	// matrix must still converge without the hard cap.
	p := mustParse(t, `
transaction accum(n int[0..100]) {
    s = 0
    for i = 0 .. n {
        s = s + 1
    }
    emit out = s
}`)
	zs := SolveGuardZone(SolveAbsInt(BuildCFG(p)))
	if zs.Capped {
		t.Fatalf("iteration cap fired on a 4-statement loop (Iterations=%d)", zs.Iterations)
	}
	if zs.Iterations > zs.maxIterations() {
		t.Fatalf("Iterations=%d exceeds bound %d", zs.Iterations, zs.maxIterations())
	}
	// The exit statement is reachable with a consistent zone.
	z := zs.At("body[2]")
	if z == nil || z.Bottom() {
		t.Fatalf("exit statement unreachable per zone: %v", z)
	}
}

// --- relational reasoning the interval domain cannot do ---

func TestZoneRelationalDeadBranch(t *testing.T) {
	p := mustParse(t, `
transaction deadRel(x int[0..100]) {
    y = x - 1
    if x < y {
        u = 1
    }
    emit out = y
}`)
	zs := SolveGuardZone(SolveAbsInt(BuildCFG(p)))
	cond := p.Body[1].(lang.If).Cond
	if !zs.CondDead("body[1]", cond, false) {
		t.Error("x < y after y = x - 1 not proven dead")
	}
	if zs.CondDead("body[1]", cond, true) {
		t.Error("¬(x < y) wrongly proven dead")
	}
}

func TestZoneLoopBoundThroughJoin(t *testing.T) {
	// lim is n clamped to 6: the interval join of the arms keeps hi = 6 only
	// because the zone assumes the else-edge guard lim ≤ 6.
	p := mustParse(t, `
transaction relLoop(n int[1..200]) {
    lim = n
    if lim > 6 {
        lim = 6
    }
    for i = 0 .. lim {
        u = i
    }
    emit out = 0
}`)
	zs := SolveGuardZone(SolveAbsInt(BuildCFG(p)))
	v, ok := zs.ExprBoundsAt("body[2]", lang.L("lim"))
	if !ok || v.Kind != AbsRange {
		t.Fatalf("no bounds for lim at the loop: %v %v", v, ok)
	}
	if v.Hi != 6 {
		t.Errorf("lim hi = %d at the loop, want 6 (guard-refined join)", v.Hi)
	}
	if v.Lo != 1 {
		t.Errorf("lim lo = %d at the loop, want 1", v.Lo)
	}
}

func TestZoneInputResolvable(t *testing.T) {
	p := mustParse(t, `
transaction res(u int[0..9]) {
    id = u
    a = get T[id]
    id = a.next
    put T[id] = a
    emit out = 0
}`)
	zs := SolveAliasZone(BuildCFG(p))
	if !zs.InputResolvable("body[1]", "id") {
		t.Error("id = u not resolvable at the GET")
	}
	if zs.InputResolvable("body[3]", "id") {
		t.Error("id = a.next wrongly resolvable at the PUT")
	}
}

func TestAliasZoneIgnoresGuards(t *testing.T) {
	// `if v == u` proves v = u on the then-edge for the guard zone, but the
	// alias zone must not resolve it: the equality is path-local, not an
	// assignment chain, and the symbolic executor's term for v stays a pivot.
	p := mustParse(t, `
transaction guarded(u int[0..9]) {
    a = get T[u]
    v = a.n
    if v == u {
        put T[v] = a
    }
    emit out = 0
}`)
	cfg := BuildCFG(p)
	alias := SolveAliasZone(cfg)
	if alias.InputResolvable("body[2].then[0]", "v") {
		t.Error("alias zone resolved a guard-derived equality")
	}
	guard := SolveGuardZone(SolveAbsInt(cfg))
	z := guard.At("body[2].then[0]")
	if z == nil || z.Bottom() {
		t.Fatal("then-arm unreachable per guard zone")
	}
	vi, ui := guard.localIdx["v"], guard.paramIdx["u"]
	if z.at(vi, ui) != 0 || z.at(ui, vi) != 0 {
		t.Errorf("guard zone should know v = u on the then-edge, got v-u ≤ %d, u-v ≤ %d",
			z.at(vi, ui), z.at(ui, vi))
	}
}

func TestKeyDetOracleUpgradesParts(t *testing.T) {
	p := mustParse(t, `
transaction eqk(u int[0..9], amt int[1..50]) {
    id = u
    c = get COUNTER[id]
    put AUDIT[id] = {v: amt}
    id = c.next
    put ITEMS[id] = {v: amt}
    emit out = 0
}`)
	plain := taint.KeyDeterminism(p)
	oracle := taint.KeyDeterminismOracle(p, SolveAliasZone(BuildCFG(p)))
	if plain.DirectCount() >= oracle.DirectCount() {
		t.Fatalf("oracle did not add direct accesses: plain=%d oracle=%d",
			plain.DirectCount(), oracle.DirectCount())
	}
	// The GET and the AUDIT PUT read `id` while it still equals u; the ITEMS
	// PUT reads it after `id = c.next` and must stay pivot-dependent.
	for _, a := range oracle.Accesses {
		switch a.Path {
		case "body[1]", "body[2]":
			if !a.Direct() {
				t.Errorf("%s %s at %s not upgraded to direct", a.Op, a.Table, a.Path)
			}
		case "body[4]":
			if a.Direct() {
				t.Errorf("%s %s at %s wrongly direct", a.Op, a.Table, a.Path)
			}
		}
	}
}

// --- differential fuzzing: zone vs interval vs concrete execution ---

// FuzzZoneVsInterval is the tentpole's differential target. For arbitrary
// program shapes it asserts (1) both zone variants converge without the
// hard cap, (2) the guard zone's unary bounds are never looser than the
// interval solution's, and (3) both variants are sound against traced
// concrete executions on boundary and random inputs over empty and
// populated stores.
func FuzzZoneVsInterval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 3, 0, 5, 3, 0, 5, 3, 0, 5, 3, 0, 1, 1, 1, 1})
	f.Add([]byte{4, 3, 1, 5, 0, 2, 4, 3, 1, 5, 0, 2, 4, 3, 1, 5, 0, 2, 9, 9})
	f.Add([]byte{1, 8, 2, 14, 3, 9, 1, 0, 4, 7, 21, 2, 5, 5, 5, 0, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := buildFuzzProgram(data)
		cfg := BuildCFG(p)
		abs := SolveAbsInt(cfg)
		guard := SolveGuardZone(abs)
		alias := SolveAliasZone(cfg)
		for name, zs := range map[string]*ZoneState{"guard": guard, "alias": alias} {
			if zs.Capped {
				t.Fatalf("%s zone iteration cap fired (Iterations=%d, nodes=%d)",
					name, zs.Iterations, len(cfg.Nodes))
			}
			if zs.Iterations > zs.maxIterations() {
				t.Fatalf("%s zone Iterations=%d exceeds bound %d", name, zs.Iterations, zs.maxIterations())
			}
		}

		// Precision: at every node both analyses reach, every interval-bounded
		// local must be at least as tightly bounded by the guard zone.
		for _, n := range cfg.Nodes {
			if n.Path == "" {
				continue
			}
			env, ok := abs.EnvAt(n.Path)
			if !ok || env == nil {
				continue
			}
			z := guard.At(n.Path)
			if z == nil || z.Bottom() {
				continue
			}
			for name, v := range env {
				if v.Kind != AbsRange {
					continue
				}
				lo, hi, tracked := varBounds(guard, z, name)
				if !tracked {
					t.Fatalf("local %q interval-tracked but unknown to the zone at %s", name, n.Path)
				}
				if lo < v.Lo || hi > v.Hi {
					t.Errorf("zone bounds [%d,%d] looser than interval [%d,%d] for %q at %s",
						lo, hi, v.Lo, v.Hi, name, n.Path)
				}
			}
		}

		// Soundness: traced concrete executions must satisfy every closed
		// constraint of both variants. Runs that error are still traced up to
		// the failure point; those states are reachable and count.
		zv := newZoneValidator(p)
		rep := &SoundnessReport{TxName: p.Name}
		opts := SoundnessOptions{}.withDefaults()
		rng := rand.New(rand.NewSource(1))
		samples := boundarySamples(p)
		for i := 0; i < 8; i++ {
			s, err := randomSample(p, rng)
			if err != nil {
				t.Fatalf("randomSample: %v", err)
			}
			samples = append(samples, s)
		}
		fields := fieldNames(p)
		for _, inputs := range samples {
			res, err := lang.RunTrace(p, inputs, newStoreKV(), zv.trace(inputs, rep, opts))
			if err != nil {
				continue
			}
			populated := newStoreKV()
			for _, k := range res.Reads {
				rec := map[string]value.Value{}
				for _, fn := range fields {
					rec[fn] = value.Int(rng.Int63n(maxFieldValue))
				}
				populated.Put(k, value.Record(rec))
			}
			_, _ = lang.RunTrace(p, inputs, populated, zv.trace(inputs, rep, opts))
		}
		if len(rep.ZoneViolations) > 0 {
			v := rep.ZoneViolations[0]
			t.Fatalf("zone unsound at %s: %s", v.Path, v.Msg)
		}
	})
}

// --- the oracle must stay aligned with symbolic-execution profiles ---

// TestOracleAgreesWithProfiles pins the contract behind the key-determinism
// upgrade: in every table the oracle-assisted static analysis proves
// all-direct, the symbolic-execution profile must have no pivot in any key
// term. A disagreement would mean the engine skips pivot reads a key needs.
func TestOracleAgreesWithProfiles(t *testing.T) {
	var progs []*lang.Program
	progs = append(progs, tpcc.Programs(tpcc.DefaultConfig(2))...)
	progs = append(progs, rubis.Programs(rubis.DefaultConfig())...)
	for _, p := range progs {
		prof, err := symexec.AnalyzeProfileOnly(p)
		if err != nil {
			t.Fatalf("%s: AnalyzeProfileOnly: %v", p.Name, err)
		}
		pc := &ProgContext{Prog: p}
		kd := pc.KeyDet()
		directTables := map[string]bool{}
		for _, tb := range kd.DirectTables() {
			directTables[tb] = true
		}
		var walk func(n *profile.Node)
		walk = func(n *profile.Node) {
			if n == nil {
				return
			}
			for _, a := range n.Seg {
				if !directTables[a.Table] {
					continue
				}
				for _, part := range a.Key {
					if sym.HasPivot(part) {
						t.Errorf("%s: static analysis proves table %s all-direct but profile key %v has a pivot",
							p.Name, a.Table, part)
					}
				}
			}
			walk(n.True)
			walk(n.False)
		}
		walk(prof.Root)
	}
}

// varBounds returns the closed unary bounds of a variable in z, a zone of
// zs, for the differential fuzz target. Parameters resolve through
// paramIdx, locals through localIdx (shadowing parameters, matching the
// interval env).
func varBounds(zs *ZoneState, z *Zone, name string) (lo, hi int64, ok bool) {
	j, found := zs.localIdx[name]
	if !found {
		if j, found = zs.paramIdx[name]; !found {
			return 0, 0, false
		}
	}
	lo, hi = -absInf, absInf
	if ub := z.at(j, 0); ub < absInf {
		hi = ub
	}
	if lb := z.at(0, j); lb < absInf {
		lo = -lb
	}
	return lo, hi, true
}
