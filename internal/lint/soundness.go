package lint

import (
	"fmt"
	"math/rand"
	"sort"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/value"
)

// The soundness checker cross-validates a symbolic-execution profile
// against the concrete interpreter: for sampled inputs (domain boundaries
// plus seeded-random draws) and store states, the key-set obtained by
// instantiating the profile must exactly equal the read/write-set of the
// concrete execution. An under-approximation (a key the execution touches
// but the profile missed) breaks determinism — the scheduler would not lock
// it; an over-approximation (a predicted key never touched) only costs
// parallelism. Both are reported, separately.

// MismatchKind distinguishes the two unsoundness directions.
type MismatchKind int

// Mismatch kinds.
const (
	// Over: the profile predicts a key the concrete execution never touches.
	Over MismatchKind = iota + 1
	// Under: the concrete execution touches a key the profile missed.
	Under
)

// String returns the kind name.
func (k MismatchKind) String() string {
	if k == Under {
		return "under-approximation"
	}
	return "over-approximation"
}

// Mismatch is one disagreement between profile and oracle.
type Mismatch struct {
	Kind  MismatchKind
	Key   value.Key
	Write bool
	// Inputs is the sampled assignment that exposed the disagreement.
	Inputs map[string]value.Value
	// Populated reports whether the store was pre-populated (true) or empty
	// (false) for this sample.
	Populated bool
}

// String renders the mismatch for diagnostics.
func (m Mismatch) String() string {
	op := "read"
	if m.Write {
		op = "write"
	}
	return fmt.Sprintf("%s: %s of %s (inputs %s, populated=%v)",
		m.Kind, op, m.Key, renderInputs(m.Inputs), m.Populated)
}

func renderInputs(in map[string]value.Value) string {
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)
	s := "{"
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n + ":" + in[n].String()
	}
	return s + "}"
}

// SoundnessOptions configures CheckSoundness.
type SoundnessOptions struct {
	// Samples is the number of random input assignments per store state, in
	// addition to the deterministic boundary assignments. 0 means 32.
	Samples int
	// Seed drives the deterministic RNG. 0 means 1.
	Seed int64
}

// maxMismatches caps each list of reported mismatches and errors.
const maxMismatches = 32

func (o SoundnessOptions) withDefaults() SoundnessOptions {
	if o.Samples == 0 {
		o.Samples = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SoundnessReport is the outcome of one profile cross-validation.
type SoundnessReport struct {
	TxName string
	// SamplesRun counts (input, store-state) pairs checked.
	SamplesRun int
	// Over and Under hold the mismatches by direction.
	Over, Under []Mismatch
	// Errors lists execution or instantiation failures hit while sampling
	// (e.g. division by zero on a boundary input); they are reported, not
	// silently skipped.
	Errors []string
	// ZoneViolations lists statements where a traced concrete execution
	// state falsified a closed zone constraint (the zone-soundness check).
	ZoneViolations []ZoneViolation
}

// ZoneViolation is one falsified zone claim: a concrete execution reached
// Path in a state that does not satisfy the closed difference-bound
// constraints the zone analysis derived there.
type ZoneViolation struct {
	Path string
	Msg  string
}

// Sound reports whether no mismatch and no error was found.
func (r *SoundnessReport) Sound() bool {
	return len(r.Over) == 0 && len(r.Under) == 0 && len(r.Errors) == 0 &&
		len(r.ZoneViolations) == 0
}

// Findings converts the report into lint findings: under-approximations are
// errors (determinism hazard), over-approximations warnings (lost
// parallelism), execution failures errors.
func (r *SoundnessReport) Findings() []Finding {
	var out []Finding
	for _, m := range r.Under {
		out = append(out, Finding{
			Prog: r.TxName, Pass: "profile-soundness", Path: "profile",
			Severity: SevError,
			Message:  "profile misses a key the execution touches: " + m.String(),
		})
	}
	for _, m := range r.Over {
		out = append(out, Finding{
			Prog: r.TxName, Pass: "profile-soundness", Path: "profile",
			Severity: SevWarning,
			Message:  "profile predicts a key the execution never touches: " + m.String(),
		})
	}
	for _, e := range r.Errors {
		out = append(out, Finding{
			Prog: r.TxName, Pass: "profile-soundness", Path: "profile",
			Severity: SevError,
			Message:  "sample execution failed: " + e,
		})
	}
	for _, v := range r.ZoneViolations {
		out = append(out, Finding{
			Prog: r.TxName, Pass: "zone-soundness", Path: v.Path,
			Severity: SevError,
			Message:  v.Msg,
		})
	}
	SortFindings(out)
	return out
}

// CheckSoundness validates prof against the concrete interpretation of p.
// Each sampled input assignment is checked against two store states: an
// empty store (all pivots read as absent) and a store whose read key-set is
// populated with records carrying seeded-random field values (pivot
// conditions exercise both outcomes).
func CheckSoundness(p *lang.Program, prof *profile.Profile, opts SoundnessOptions) (*SoundnessReport, error) {
	if prof == nil {
		return nil, fmt.Errorf("lint: soundness: no profile for %s", p.Name)
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &SoundnessReport{TxName: p.Name}
	checkDirectMarks(prof, rep)
	fields := fieldNames(p)
	zv := newZoneValidator(p)

	samples := boundarySamples(p)
	for i := 0; i < opts.Samples; i++ {
		s, err := randomSample(p, rng)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}

	for _, inputs := range samples {
		// State 1: empty store.
		if err := checkOne(p, prof, inputs, newStoreKV(), false, rep, zv); err != nil {
			return nil, err
		}
		// State 2: populate the keys the execution reads on the empty store
		// with records of random field values, then re-check. This flips
		// pivot-dependent conditions that are constant on an empty store.
		probe := newStoreKV()
		res, err := lang.Run(p, inputs, probe)
		if err != nil {
			continue // already reported by the empty-store check
		}
		populated := newStoreKV()
		for _, k := range res.Reads {
			rec := map[string]value.Value{}
			for _, f := range fields {
				rec[f] = value.Int(rng.Int63n(maxFieldValue))
			}
			populated.Put(k, value.Record(rec))
		}
		if err := checkOne(p, prof, inputs, populated, true, rep, zv); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// maxFieldValue bounds random record field values; comfortably above
// typical parameter domains so comparisons go both ways.
const maxFieldValue = 1 << 12

// checkOne runs the profile and the oracle against one (inputs, store)
// pair, recording disagreements into rep. The concrete execution is traced
// statement by statement so the zone validator can falsify difference-bound
// claims against live states (states observed before an execution error are
// still reachable states, so tracing a failing run is fine).
func checkOne(p *lang.Program, prof *profile.Profile, inputs map[string]value.Value,
	st *storeKV, populated bool, rep *SoundnessReport, zv *zoneValidator) error {
	rep.SamplesRun++

	// Instantiate against the pristine store: pivot reads must see the
	// state the concrete execution starts from.
	ks, ierr := prof.Instantiate(inputs, st)
	// The oracle runs on a clone; the concrete execution mutates its store.
	res, rerr := lang.RunTrace(p, inputs, st.clone(), zv.trace(inputs, rep))
	switch {
	case ierr != nil && rerr != nil:
		// Both reject the input (e.g. an out-of-domain boundary combination
		// hitting a division); consistent, nothing to compare.
		return nil
	case ierr != nil:
		rep.addError(fmt.Sprintf("profile instantiation failed where execution succeeds: %v (inputs %s)",
			ierr, renderInputs(inputs)))
		return nil
	case rerr != nil:
		rep.addError(fmt.Sprintf("concrete execution failed: %v (inputs %s)", rerr, renderInputs(inputs)))
		return nil
	}

	diffKeySets(ks.Reads, res.Reads, false, inputs, populated, rep)
	diffKeySets(ks.Writes, res.Writes, true, inputs, populated, rep)
	checkSplitInstantiation(prof, inputs, st, ks, rep)
	return nil
}

// checkDirectMarks validates the profile's Direct annotations against the
// symbolic keys themselves: an access marked Direct must not mention a pivot
// variable in any key part, or the engine would skip pivot reads the key
// actually needs. (A pivot-free access left unmarked is merely conservative —
// it costs the client-side-prediction optimization, not correctness — so it
// is not reported here; the symbolic executor's own cross-check catches it at
// analysis time.)
func checkDirectMarks(prof *profile.Profile, rep *SoundnessReport) {
	var walk func(n *profile.Node)
	walk = func(n *profile.Node) {
		if n == nil {
			return
		}
		for _, a := range n.Seg {
			if a.Direct && a.Indirect() {
				rep.addError(fmt.Sprintf("access %s is marked Direct but its key depends on a pivot", a))
			}
		}
		walk(n.True)
		walk(n.False)
	}
	walk(prof.Root)
}

// checkSplitInstantiation cross-validates the client-side prediction path:
// for pivot-free-traversal profiles the direct + indirect split must
// reproduce the full instantiation — same keys, same pivot observations, and
// no store access from the direct half.
func checkSplitInstantiation(prof *profile.Profile, inputs map[string]value.Value,
	st *storeKV, full *profile.KeySet, rep *SoundnessReport) {
	if !prof.PivotFreeTraversal() {
		return
	}
	direct, err := prof.InstantiateDirect(inputs)
	if err != nil {
		rep.addError(fmt.Sprintf("direct instantiation failed where full instantiation succeeds: %v (inputs %s)",
			err, renderInputs(inputs)))
		return
	}
	if len(direct.Pivots) != 0 {
		rep.addError(fmt.Sprintf("direct instantiation recorded %d pivot observations (inputs %s)",
			len(direct.Pivots), renderInputs(inputs)))
	}
	// Both ways the engine prepares: the direct part evaluated in the same
	// traversal, and handed in from an earlier one.
	for _, given := range []*profile.KeySet{nil, direct} {
		split, err := prof.InstantiateSplit(inputs, st, given)
		if err != nil {
			rep.addError(fmt.Sprintf("split instantiation failed where full instantiation succeeds: %v (inputs %s)",
				err, renderInputs(inputs)))
			return
		}
		if len(split.Pivots) != len(full.Pivots) {
			rep.addError(fmt.Sprintf("split instantiation observed %d pivots, full observed %d (inputs %s)",
				len(split.Pivots), len(full.Pivots), renderInputs(inputs)))
		}
		if split.DirectReads != len(direct.Reads) || split.DirectWrites != len(direct.Writes) {
			rep.addError(fmt.Sprintf("split instantiation marks %d+%d keys direct, direct instantiation yields %d+%d (inputs %s)",
				split.DirectReads, split.DirectWrites, len(direct.Reads), len(direct.Writes), renderInputs(inputs)))
		}
		sameKeySet(split.Reads, full.Reads, "read", inputs, rep)
		sameKeySet(split.Writes, full.Writes, "write", inputs, rep)
	}
}

// --- zone validation: concrete states vs difference-bound claims ---

// zoneValidator cross-validates both zone variants against traced concrete
// executions: the guard-assuming zone behind dead-branch and loop-bound
// reasoning, and the assignment-chain-only alias zone behind the
// key-determinism oracle. Closed entry zones are cached per statement path
// (the solution is fixed; only the concrete states vary per sample).
type zoneValidator struct {
	variants []*zoneVariant
}

type zoneVariant struct {
	name   string
	zs     *ZoneState
	closed map[string]*Zone
}

func newZoneValidator(p *lang.Program) *zoneValidator {
	cfg := BuildCFG(p)
	return &zoneValidator{variants: []*zoneVariant{
		{name: "zone", zs: SolveGuardZone(SolveAbsInt(cfg)), closed: map[string]*Zone{}},
		{name: "alias zone", zs: SolveAliasZone(cfg), closed: map[string]*Zone{}},
	}}
}

func (v *zoneVariant) at(path string) *Zone {
	if z, ok := v.closed[path]; ok {
		return z
	}
	z := v.zs.At(path)
	v.closed[path] = z
	return z
}

// trace returns the statement-entry hook for one sampled run.
func (zv *zoneValidator) trace(inputs map[string]value.Value, rep *SoundnessReport) lang.TraceFunc {
	return func(path string, locals map[string]value.Value) {
		for _, v := range zv.variants {
			validateZone(v, path, inputs, locals, rep)
		}
	}
}

// validateZone checks one variant's closed entry zone at one executed
// statement: the statement must not be claimed unreachable, and every
// finite constraint v - w ≤ c must hold for the concrete values live there
// (the zero variable is 0, parameters come from the inputs, locals from the
// live interpreter state). Variables that are unassigned or non-integer at
// the point are skipped: constraints on them are not concretely observable.
func validateZone(v *zoneVariant, path string, inputs, locals map[string]value.Value,
	rep *SoundnessReport) {
	if v.zs.Capped {
		return // a capped solution claims nothing
	}
	z := v.at(path)
	if z == nil || z.Bottom() {
		rep.addZoneViolation(path, fmt.Sprintf(
			"%s claims this statement unreachable, but a concrete execution reached it (inputs %s)",
			v.name, renderInputs(inputs)))
		return
	}
	vals := make([]int64, z.n)
	def := make([]bool, z.n)
	def[0] = true // the zero variable
	for i := 1; i < z.n; i++ {
		var cv value.Value
		var ok bool
		if i <= v.zs.nParams {
			cv, ok = inputs[v.zs.names[i]]
		} else {
			cv, ok = locals[v.zs.names[i]]
		}
		if !ok {
			continue
		}
		if iv, isInt := cv.AsInt(); isInt {
			vals[i], def[i] = iv, true
		}
	}
	for i := 0; i < z.n; i++ {
		if !def[i] {
			continue
		}
		for j := 0; j < z.n; j++ {
			if i == j || !def[j] {
				continue
			}
			c := z.at(i, j)
			if c >= absInf {
				continue
			}
			if vals[i]-vals[j] > c {
				rep.addZoneViolation(path, fmt.Sprintf(
					"%s claims %s - %s ≤ %d, but a concrete execution has %d - %d here (inputs %s)",
					v.name, v.zs.names[i], v.zs.names[j], c, vals[i], vals[j], renderInputs(inputs)))
			}
		}
	}
}

func (r *SoundnessReport) addZoneViolation(path, msg string) {
	if len(r.ZoneViolations) < maxMismatches {
		r.ZoneViolations = append(r.ZoneViolations, ZoneViolation{Path: path, Msg: msg})
	}
}

// sameKeySet reports an error for every key on which the split and full
// instantiations disagree.
func sameKeySet(split, full []value.Key, op string, inputs map[string]value.Value,
	rep *SoundnessReport) {
	s, f := keySet(split), keySet(full)
	for e, k := range s {
		if _, ok := f[e]; !ok {
			rep.addError(fmt.Sprintf("split instantiation predicts %s of %s that the full instantiation does not (inputs %s)",
				op, k, renderInputs(inputs)))
		}
	}
	for e, k := range f {
		if _, ok := s[e]; !ok {
			rep.addError(fmt.Sprintf("split instantiation misses %s of %s that the full instantiation predicts (inputs %s)",
				op, k, renderInputs(inputs)))
		}
	}
}

// diffKeySets compares predicted against observed keys as sets (program
// order and duplicates are not part of the soundness contract).
func diffKeySets(predicted, observed []value.Key, write bool,
	inputs map[string]value.Value, populated bool, rep *SoundnessReport) {
	pred := keySet(predicted)
	obs := keySet(observed)
	for _, k := range predicted {
		if _, ok := obs[k.Encode()]; !ok {
			rep.addMismatch(Mismatch{Kind: Over, Key: k, Write: write, Inputs: inputs, Populated: populated})
			obs[k.Encode()] = k // report each key once per sample
		}
	}
	for _, k := range observed {
		if _, ok := pred[k.Encode()]; !ok {
			rep.addMismatch(Mismatch{Kind: Under, Key: k, Write: write, Inputs: inputs, Populated: populated})
			pred[k.Encode()] = k
		}
	}
}

func keySet(keys []value.Key) map[value.Encoded]value.Key {
	m := make(map[value.Encoded]value.Key, len(keys))
	for _, k := range keys {
		m[k.Encode()] = k
	}
	return m
}

func (r *SoundnessReport) addMismatch(m Mismatch) {
	if m.Kind == Over {
		if len(r.Over) < maxMismatches {
			r.Over = append(r.Over, m)
		}
		return
	}
	if len(r.Under) < maxMismatches {
		r.Under = append(r.Under, m)
	}
}

func (r *SoundnessReport) addError(msg string) {
	if len(r.Errors) < maxMismatches {
		r.Errors = append(r.Errors, msg)
	}
}

// --- input sampling ---

// boundarySamples returns deterministic assignments exercising domain
// boundaries: all parameters at their low bound, all at their high bound,
// and the two alternating low/high patterns.
func boundarySamples(p *lang.Program) []map[string]value.Value {
	patterns := [][2]bool{
		{false, false}, // all lo
		{true, true},   // all hi
		{false, true},  // alternate lo/hi
		{true, false},  // alternate hi/lo
	}
	var out []map[string]value.Value
	for _, pat := range patterns {
		inputs := map[string]value.Value{}
		// Scalars first: a list's effective length may reference an int
		// parameter (LenParam), which must be assigned before the list is
		// built.
		for i, prm := range p.Params {
			if prm.Kind != value.KindList {
				inputs[prm.Name] = boundaryValue(prm, pat[i%2])
			}
		}
		for i, prm := range p.Params {
			if prm.Kind == value.KindList {
				inputs[prm.Name] = boundaryList(prm, pat[i%2], effectiveLen(prm, inputs))
			}
		}
		out = append(out, inputs)
	}
	return out
}

// effectiveLen returns the list length a sample should use: the sampled
// value of the declared length parameter clamped to [0, MaxLen], or the full
// MaxLen capacity when the list declares no length parameter. Sampling the
// effective length (rather than always filling to capacity) exercises the
// short-list paths a loop bounded by the length parameter takes.
func effectiveLen(prm lang.Param, inputs map[string]value.Value) int {
	if prm.LenParam == "" {
		return prm.MaxLen
	}
	v, ok := inputs[prm.LenParam]
	if !ok {
		return prm.MaxLen
	}
	n, ok := v.AsInt()
	if !ok {
		return prm.MaxLen
	}
	if n < 0 {
		return 0
	}
	if n > int64(prm.MaxLen) {
		return prm.MaxLen
	}
	return int(n)
}

// boundaryList builds an n-element list of boundary element values.
func boundaryList(prm lang.Param, hi bool, n int) value.Value {
	elems := make([]value.Value, n)
	for i := range elems {
		if prm.Elem != nil {
			elems[i] = boundaryValue(*prm.Elem, hi)
		} else {
			elems[i] = value.Int(0)
		}
	}
	return value.List(elems...)
}

func boundaryValue(prm lang.Param, hi bool) value.Value {
	switch prm.Kind {
	case value.KindInt:
		if hi {
			return value.Int(prm.Hi)
		}
		return value.Int(prm.Lo)
	case value.KindString:
		if hi {
			return value.Str("zz")
		}
		return value.Str("")
	case value.KindBool:
		return value.Bool(hi)
	case value.KindList:
		// Nested element lists have no LenParam reference of their own; fill
		// to capacity. Top-level lists go through boundaryList instead.
		return boundaryList(prm, hi, prm.MaxLen)
	default:
		return value.Int(0)
	}
}

// randomSample draws one assignment uniformly from the declared domains.
// Lists are drawn after scalars so their effective length can follow the
// sampled value of their LenParam.
func randomSample(p *lang.Program, rng *rand.Rand) (map[string]value.Value, error) {
	inputs := map[string]value.Value{}
	for _, prm := range p.Params {
		if prm.Kind == value.KindList {
			continue
		}
		v, err := randomValue(prm, rng)
		if err != nil {
			return nil, fmt.Errorf("lint: soundness: %s: %w", p.Name, err)
		}
		inputs[prm.Name] = v
	}
	for _, prm := range p.Params {
		if prm.Kind != value.KindList {
			continue
		}
		v, err := randomList(prm, rng, effectiveLen(prm, inputs))
		if err != nil {
			return nil, fmt.Errorf("lint: soundness: %s: %w", p.Name, err)
		}
		inputs[prm.Name] = v
	}
	return inputs, nil
}

// randomList draws an n-element list of random element values.
func randomList(prm lang.Param, rng *rand.Rand, n int) (value.Value, error) {
	elems := make([]value.Value, n)
	for i := range elems {
		if prm.Elem != nil {
			v, err := randomValue(*prm.Elem, rng)
			if err != nil {
				return value.Value{}, err
			}
			elems[i] = v
		} else {
			elems[i] = value.Int(0)
		}
	}
	return value.List(elems...), nil
}

func randomValue(prm lang.Param, rng *rand.Rand) (value.Value, error) {
	switch prm.Kind {
	case value.KindInt:
		if prm.Lo > prm.Hi {
			return value.Value{}, fmt.Errorf("parameter %q has empty domain [%d..%d]", prm.Name, prm.Lo, prm.Hi)
		}
		return value.Int(prm.Lo + rng.Int63n(prm.Hi-prm.Lo+1)), nil
	case value.KindString:
		return value.Str(fmt.Sprintf("s%d", rng.Intn(4))), nil
	case value.KindBool:
		return value.Bool(rng.Intn(2) == 1), nil
	case value.KindList:
		// Nested element lists fill to capacity; top-level lists go through
		// randomList with their effective length.
		return randomList(prm, rng, prm.MaxLen)
	default:
		return value.Value{}, fmt.Errorf("parameter %q has unsupported kind %s", prm.Name, prm.Kind)
	}
}

// fieldNames collects every record field name the program mentions, sorted;
// the store populator uses them to synthesize plausible records.
func fieldNames(p *lang.Program) []string {
	seen := map[string]bool{}
	lang.Walk(p.Root(), func(_ string, st lang.Stmt) {
		if s, ok := st.(lang.SetField); ok {
			seen[s.Field] = true
		}
		for _, e := range lang.Exprs(st) {
			lang.Inspect(e, func(x lang.Expr) bool {
				switch x := x.(type) {
				case lang.Field:
					seen[x.Name] = true
				case lang.Rec:
					for _, f := range x.Fields {
						seen[f.Name] = true
					}
				}
				return true
			})
		}
	})
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// --- storeKV: the in-memory store used as the oracle substrate ---

// storeKV is a flat KV implementing both the interpreter's store interface
// and the profile instantiator's pivot reader.
type storeKV struct {
	m map[value.Encoded]value.Value
}

func newStoreKV() *storeKV { return &storeKV{m: map[value.Encoded]value.Value{}} }

func (kv *storeKV) clone() *storeKV {
	c := newStoreKV()
	for k, v := range kv.m {
		c.m[k] = v
	}
	return c
}

// Get implements lang.KV.
func (kv *storeKV) Get(k value.Key) (value.Value, bool) {
	v, ok := kv.m[k.Encode()]
	return v, ok
}

// Put implements lang.KV.
func (kv *storeKV) Put(k value.Key, v value.Value) { kv.m[k.Encode()] = v }

// Delete implements lang.KV.
func (kv *storeKV) Delete(k value.Key) { delete(kv.m, k.Encode()) }

// ReadPivot implements profile.PivotReader.
func (kv *storeKV) ReadPivot(k value.Key, field string) (value.Value, bool) {
	rec, ok := kv.m[k.Encode()]
	if !ok {
		return value.Value{}, false
	}
	f, ok := rec.Field(field)
	if !ok {
		return value.Value{}, false
	}
	return f, true
}
