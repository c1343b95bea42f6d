package symexec

import (
	"math/rand"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/value"
)

// Program-level fuzzing: generate random well-formed programs, analyze them
// optimized AND unoptimized, and check — for many random inputs and store
// states — that each profile's predicted key-set covers exactly the keys
// the concrete interpreter touches. This is the soundness property the
// whole system rests on.

// progGen builds random programs over a small schema. Programs follow the
// read-phase-then-write-phase OLTP shape: once the first PUT is emitted no
// further GETs occur, so profiles are exactly sound (reads never observe
// the transaction's own writes; see the engine-level fuzz for arbitrary
// interleavings, which exercise the misprediction fallback instead).
type progGen struct {
	r       *rand.Rand
	params  []lang.Param
	locals  []string
	depth   int
	writing bool
}

func (g *progGen) intExpr(allowLocals bool) lang.Expr {
	switch g.r.Intn(6) {
	case 0:
		return lang.C(int64(g.r.Intn(8)))
	case 1, 2:
		if len(g.params) > 0 {
			p := g.params[g.r.Intn(len(g.params))]
			return lang.P(p.Name)
		}
		return lang.C(1)
	case 3:
		if allowLocals && len(g.locals) > 0 {
			return lang.L(g.locals[g.r.Intn(len(g.locals))])
		}
		return lang.C(2)
	case 4:
		return lang.Add(g.intExpr(allowLocals), g.intExpr(false))
	default:
		return lang.Mod(g.intExpr(allowLocals), lang.C(int64(3+g.r.Intn(5))))
	}
}

func (g *progGen) condExpr() lang.Expr {
	ops := []func(l, r lang.Expr) lang.Expr{lang.Lt, lang.Le, lang.Gt, lang.Ge, lang.Eq, lang.Ne}
	return ops[g.r.Intn(len(ops))](g.intExpr(true), g.intExpr(true))
}

func (g *progGen) block(n int) []lang.Stmt {
	var out []lang.Stmt
	for i := 0; i < n; i++ {
		switch g.r.Intn(7) {
		case 0, 1: // GET while in the read phase, possibly a pivot chain
			if g.writing {
				out = append(out, lang.PutS("T", lang.Key(g.keyExpr()),
					lang.RecE(lang.F("v", g.intExpr(true)))))
				continue
			}
			dst := g.newLocal()
			out = append(out, lang.GetS(dst, "T", g.keyExpr()))
		case 2, 3: // PUT; enters the write phase
			g.writing = true
			out = append(out, lang.PutS("T", lang.Key(g.keyExpr()),
				lang.RecE(lang.F("v", g.intExpr(true)))))
		case 4: // assignment
			dst := g.newLocal()
			out = append(out, lang.Set(dst, g.intExpr(true)))
		case 5: // branch
			if g.depth < 3 {
				g.depth++
				thenB := g.block(1 + g.r.Intn(2))
				var elseB []lang.Stmt
				if g.r.Intn(2) == 0 {
					elseB = g.block(1 + g.r.Intn(2))
				}
				g.depth--
				out = append(out, lang.IfElse(g.condExpr(), thenB, elseB))
			}
		default: // bounded loop with concrete bounds
			if g.depth < 2 {
				g.depth++
				body := g.block(1 + g.r.Intn(2))
				g.depth--
				out = append(out, lang.ForS(g.newLocal(), lang.C(0), lang.C(int64(1+g.r.Intn(3))), body...))
			}
		}
	}
	return out
}

// keyExpr builds a key that may depend on params, locals (possibly GET
// results — pivots), or constants, wrapped in Mod to keep the space small.
func (g *progGen) keyExpr() lang.Expr {
	base := g.intExpr(true)
	if g.r.Intn(2) == 0 {
		// project a field of a record local with some probability: pivots
		if len(g.locals) > 0 {
			l := g.locals[g.r.Intn(len(g.locals))]
			base = lang.Fld(lang.L(l), "v")
		}
	}
	return lang.Mod(base, lang.C(16))
}

func (g *progGen) newLocal() string {
	// Local names stay in a..o so they can never collide with the
	// parameter names (p, q, r) — keeps Format/Parse round trips clean.
	name := string(rune('a' + len(g.locals)%15))
	g.locals = append(g.locals, name)
	return name
}

func randomProgram(seed int64) *lang.Program {
	r := rand.New(rand.NewSource(seed))
	g := &progGen{r: r}
	nParams := 1 + r.Intn(3)
	for i := 0; i < nParams; i++ {
		g.params = append(g.params, lang.IntParam(string(rune('p'+i)), 0, int64(4+r.Intn(12))))
	}
	return &lang.Program{
		Name:   "fuzz",
		Params: g.params,
		Body:   g.block(3 + r.Intn(4)),
	}
}

// Some generated programs index Mod on locals holding records (Fld of a
// missing field reads 0 — fine) or divide by zero (never: Mod constants are
// >= 3). Validation failures are skipped.

func fuzzSchema() *lang.Schema {
	return lang.NewSchema(lang.TableSpec{Name: "T", KeyArity: 1})
}

func TestFuzzProfilesCoverConcreteExecution(t *testing.T) {
	schema := fuzzSchema()
	tried, analyzed := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		p := randomProgram(seed)
		if err := schema.Validate(p); err != nil {
			continue
		}
		tried++
		for _, opts := range []options{
			{useTaint: true, prune: true},
			{prune: true},
			{},
		} {
			prof, err := analyze(p, opts)
			if err != nil {
				// Budget or unsupported constructs: acceptable for fuzz
				// programs, but must be an explicit error, not a panic.
				continue
			}
			analyzed++
			for trial := int64(0); trial < 6; trial++ {
				inputs := randomInputs(p, seed*31+trial)
				kv := randomStore(seed*17 + trial)
				// Predict BEFORE executing (as the Queuer does): the
				// profile is instantiated against the pre-batch snapshot.
				ks, instErr := prof.Instantiate(inputs, kv)
				res, runErr := lang.Run(p, inputs, kv)
				if runErr != nil {
					// Fuzz programs may be dynamically ill-typed for some
					// states (e.g. a record stored where a later key
					// expects an int); such runs are outside the engine's
					// contract — skip, but instantiation must not have
					// succeeded with garbage silently.
					continue
				}
				if instErr != nil {
					t.Fatalf("seed %d: instantiate failed where execution succeeds: %v\n%s",
						seed, instErr, lang.Format(p))
				}
				assertCover(t, seed, p, inputs, res, ks)
			}
		}
	}
	if tried < 100 || analyzed < 150 {
		t.Fatalf("fuzz coverage too thin: %d programs, %d analyses", tried, analyzed)
	}
}

func assertCover(t *testing.T, seed int64, p *lang.Program, inputs map[string]value.Value, res *lang.Result, ks *profile.KeySet) {
	t.Helper()
	predictedW := map[string]bool{}
	for _, k := range ks.Writes {
		predictedW[k.String()] = true
	}
	for _, k := range res.Writes {
		if !predictedW[k.String()] {
			t.Fatalf("seed %d: write %s not predicted (writes %v reads %v)\ninputs=%v\n%s",
				seed, k, ks.Writes, ks.Reads, inputs, lang.Format(p))
		}
	}
	predictedR := map[string]bool{}
	for _, k := range ks.Reads {
		predictedR[k.String()] = true
	}
	for _, k := range res.Reads {
		if !predictedR[k.String()] {
			t.Fatalf("seed %d: read %s not predicted (reads %v)\ninputs=%v\n%s",
				seed, k, ks.Reads, inputs, lang.Format(p))
		}
	}
}

// randomStore populates a store with random records over the fuzz key
// space, so pivots read meaningful values.
func randomStore(seed int64) *storeKV {
	r := rand.New(rand.NewSource(seed))
	kv := newStoreKV()
	for i := int64(0); i < 16; i++ {
		if r.Intn(3) != 0 { // leave some keys missing
			kv.Put(value.NewKey("T", value.Int(i)),
				value.Record(map[string]value.Value{"v": value.Int(r.Int63n(16))}))
		}
	}
	return kv
}

// TestFuzzFormatParseRoundTrip: for every generated program, Format output
// re-parses to a program with the identical profile tree — the printer and
// parser agree on the language.
func TestFuzzFormatParseRoundTrip(t *testing.T) {
	schema := fuzzSchema()
	checked := 0
	for seed := int64(0); seed < 200; seed++ {
		p := randomProgram(seed)
		if err := schema.Validate(p); err != nil {
			continue
		}
		src := lang.Format(p)
		back, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: Format output failed to parse: %v\n%s", seed, err, src)
		}
		if err := schema.Validate(back); err != nil {
			t.Fatalf("seed %d: re-parsed program invalid: %v", seed, err)
		}
		a, errA := Analyze(p)
		b, errB := Analyze(back)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: analyze disagreement after round trip", seed)
		}
		if errA == nil && !treesEqual(a.Root, b.Root) {
			t.Fatalf("seed %d: profile changed across Format/Parse:\n%s", seed, src)
		}
		checked++
	}
	if checked < 80 {
		t.Fatalf("only %d programs round-tripped", checked)
	}
}

// TestFuzzDeterministicProfiles: analyzing the same program twice yields
// structurally identical profiles (analysis itself is deterministic).
func TestFuzzDeterministicProfiles(t *testing.T) {
	schema := fuzzSchema()
	for seed := int64(0); seed < 50; seed++ {
		p := randomProgram(seed)
		if err := schema.Validate(p); err != nil {
			continue
		}
		a, errA := Analyze(p)
		b, errB := Analyze(p)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: nondeterministic analyze error", seed)
		}
		if errA != nil {
			continue
		}
		if !treesEqual(a.Root, b.Root) {
			t.Fatalf("seed %d: nondeterministic profile tree", seed)
		}
	}
}
