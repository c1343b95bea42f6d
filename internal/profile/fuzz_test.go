package profile_test

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/store"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// catalogCase is one transaction of a shipped catalog with its profile,
// which reads args in the program's parameter order as the engine's
// registry sets it, and a populated store to read pivots from.
type catalogCase struct {
	prog *lang.Program
	prof *profile.Profile
	view profile.PivotReader
}

var catalogCases = sync.OnceValues(func() ([]catalogCase, error) {
	var cases []catalogCase
	add := func(st *store.Store, progs []*lang.Program) error {
		view := st.ViewAt(st.Epoch())
		for _, p := range progs {
			prof, err := symexec.Analyze(p)
			if err != nil {
				return fmt.Errorf("analyze %s: %w", p.Name, err)
			}
			prof.Params = p.ParamNames()
			cases = append(cases, catalogCase{prog: p, prof: prof, view: view})
		}
		return nil
	}
	tcfg := tpcc.DefaultConfig(1)
	tst := store.New()
	tpcc.Populate(tst, tcfg)
	if err := add(tst, tpcc.Programs(tcfg)); err != nil {
		return nil, err
	}
	rcfg := rubis.DefaultConfig()
	rst := store.New()
	rubis.Populate(rst, rcfg)
	if err := add(rst, rubis.Programs(rcfg)); err != nil {
		return nil, err
	}
	src, err := os.ReadFile("../../testdata/bank.txn")
	if err != nil {
		return nil, err
	}
	bank, err := lang.ParseAll(string(src))
	if err != nil {
		return nil, err
	}
	bst := store.New()
	w := bst.WriterAt(bst.BeginEpoch())
	for i := int64(0); i < 100; i++ {
		w.Put(value.NewKey("ACCOUNTS", value.Int(i)), value.Record(map[string]value.Value{"bal": value.Int(i * 10)}))
	}
	w.Put(value.NewKey("COUNTERS", value.Str("accounts")), value.Record(map[string]value.Value{"next": value.Int(100)}))
	if err := add(bst, bank); err != nil {
		return nil, err
	}
	return cases, nil
})

// byteSource turns fuzz bytes into choices; past the end it reads zeros.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// intn returns a choice in [0, n), n ≥ 1.
func (s *byteSource) intn(n int) int { return int(uint16(s.next())<<8|uint16(s.next())) % n }

// randomInputs draws a value for each parameter, mostly inside its domain
// and at times just outside it; lists are as long as their length
// parameter says, or shorter or longer. One draw in eight drops an input.
func randomInputs(p *lang.Program, src *byteSource) map[string]value.Value {
	in := map[string]value.Value{}
	for _, prm := range p.Params {
		in[prm.Name] = randomValue(prm, src)
	}
	if src.intn(8) == 0 && len(p.Params) > 0 {
		delete(in, p.Params[src.intn(len(p.Params))].Name)
	}
	return in
}

func randomValue(prm lang.Param, src *byteSource) value.Value {
	switch prm.Kind {
	case value.KindInt:
		// lo-1 .. hi+1, both ends included.
		span := uint64(prm.Hi-prm.Lo) + 3
		return value.Int(prm.Lo - 1 + int64(uint64(src.intn(1<<16))%span))
	case value.KindString:
		return value.Str([]string{"", "a", "x/y", "%", "user1"}[src.intn(5)])
	case value.KindBool:
		return value.Bool(src.intn(2) == 1)
	case value.KindList:
		elems := make([]value.Value, src.intn(prm.MaxLen+2))
		for i := range elems {
			elems[i] = randomValue(*prm.Elem, src)
		}
		return value.List(elems...)
	default:
		return value.Int(int64(src.intn(10)))
	}
}

// shifted reads pivots through pr and adds delta to the integers: the store
// as it is after other transactions wrote it, for a re-preparation.
type shifted struct {
	pr    profile.PivotReader
	delta int64
}

func (s shifted) ReadPivot(k value.Key, field string) (value.Value, bool) {
	v, found := s.pr.ReadPivot(k, field)
	if i, ok := v.AsInt(); ok {
		return value.Int(i + s.delta), found
	}
	return v, found
}

// renderKS renders an instantiation's outcome: the error, or every key in
// order, the direct counts and the pivot observations.
func renderKS(ks *profile.KeySet, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "reads %d direct %q\nwrites %d direct %q\npivots", ks.DirectReads, keyStrings(ks.Reads), ks.DirectWrites, keyStrings(ks.Writes))
	for _, o := range ks.Pivots {
		fmt.Fprintf(&sb, " %s.%s=%s", o.Key, o.Field, o.Value)
	}
	return sb.String()
}

func keyStrings(keys []value.Key) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

func sameOutcome(t *testing.T, label string, got *profile.KeySet, gotErr error, want *profile.KeySet, wantErr error) {
	t.Helper()
	if g, w := renderKS(got, gotErr), renderKS(want, wantErr); g != w {
		t.Fatalf("%s:\ncompiled:    %s\ntree-walker: %s", label, g, w)
	}
}

// checkCompiledMatchesTree instantiates c's profile with inputs at every
// entry point, bound and unbound, fresh and into an earlier result, and
// compares each outcome with the tree-walker's.
func checkCompiledMatchesTree(t *testing.T, c catalogCase, inputs map[string]value.Value, delta int64) {
	prof, pr := c.prof, c.view
	moved := shifted{pr: pr, delta: delta}
	label := fmt.Sprintf("%s%v", c.prog.Name, inputs)

	ks, err := prof.Instantiate(inputs, pr)
	want, wantErr := profile.TreeInstantiate(prof, inputs, pr)
	sameOutcome(t, label+" Instantiate", ks, err, want, wantErr)

	direct, err := prof.InstantiateDirect(inputs)
	wantDirect, wantErr := profile.TreeInstantiateDirect(prof, inputs)
	sameOutcome(t, label+" InstantiateDirect", direct, err, wantDirect, wantErr)

	ks, err = prof.InstantiateSplit(inputs, pr, nil)
	want, wantErr = profile.TreeInstantiateSplit(prof, inputs, pr, nil)
	sameOutcome(t, label+" InstantiateSplit", ks, err, want, wantErr)
	if direct != nil {
		ks, err = prof.InstantiateSplit(inputs, moved, direct)
		want, wantErr = profile.TreeInstantiateSplit(prof, inputs, moved, direct)
		sameOutcome(t, label+" InstantiateSplit(direct)", ks, err, want, wantErr)
	}

	args, err := c.prog.Bind(nil, inputs)
	if err != nil {
		return // the engine refuses the request before it instantiates
	}
	first, err := prof.InstantiateArgs(args, pr, nil)
	want, wantErr = profile.TreeInstantiate(prof, inputs, pr)
	sameOutcome(t, label+" InstantiateArgs", first, err, want, wantErr)
	if err == nil {
		ks, err = prof.InstantiateArgs(args, moved, first)
		want, wantErr = profile.TreeInstantiate(prof, inputs, moved)
		sameOutcome(t, label+" InstantiateArgs(into)", ks, err, want, wantErr)
	}
	first, err = prof.InstantiateSplitArgs(args, pr, nil)
	want, wantErr = profile.TreeInstantiateSplit(prof, inputs, pr, nil)
	sameOutcome(t, label+" InstantiateSplitArgs", first, err, want, wantErr)
	if err == nil {
		ks, err = prof.InstantiateSplitArgs(args, moved, first)
		want, wantErr = profile.TreeInstantiateSplit(prof, inputs, moved, nil)
		sameOutcome(t, label+" InstantiateSplitArgs(into)", ks, err, want, wantErr)
	}
}

// FuzzCompiledProfileMatchesTree holds the compiled instantiation to the
// tree-walking oracle on every profile of TPC-C (1 warehouse), RUBiS and
// testdata/bank.txn: random inputs, in and just outside their domains, with
// an input dropped at times, over populated stores in which some pivot
// records are missing (keys outside the populated range) and whose pivots
// move between a preparation and its re-preparation.
func FuzzCompiledProfileMatchesTree(f *testing.F) {
	cases, err := catalogCases()
	if err != nil {
		f.Fatal(err)
	}
	for i := range cases {
		f.Add(byte(i), int8(1), []byte{byte(i), 7, byte(3 * i), 200, 1, 42})
	}
	f.Fuzz(func(t *testing.T, pick byte, delta int8, data []byte) {
		c := cases[int(pick)%len(cases)]
		checkCompiledMatchesTree(t, c, randomInputs(c.prog, &byteSource{b: data}), int64(delta))
	})
}

// TestCompiledProfileMatchesTree is the fuzz check over inputs the
// workload generators draw, where the paths are the ones the benchmarks run.
func TestCompiledProfileMatchesTree(t *testing.T) {
	cases, err := catalogCases()
	if err != nil {
		t.Fatal(err)
	}
	tgen := tpcc.NewGenerator(tpcc.DefaultConfig(1), 1)
	rgen := rubis.NewGenerator(rubis.DefaultConfig(), 1)
	byName := map[string]catalogCase{}
	for _, c := range cases {
		byName[c.prog.Name] = c
	}
	for i := 0; i < 300; i++ {
		for _, next := range []func() (string, map[string]value.Value){tgen.Next, rgen.Next} {
			name, inputs := next()
			c, ok := byName[name]
			if !ok {
				t.Fatalf("no profile for %s", name)
			}
			checkCompiledMatchesTree(t, c, inputs, int64(i%3))
		}
	}
}
