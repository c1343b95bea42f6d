package symexec

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// pinnedCatalogs are the programs whose profiles TestAnalysisProfilesPinned
// holds fixed: TPC-C at 1 and 10 warehouses, RUBiS and the bank example.
func pinnedCatalogs(t testing.TB) map[string][]*lang.Program {
	src, err := os.ReadFile("../../testdata/bank.txn")
	if err != nil {
		t.Fatal(err)
	}
	bank, err := lang.ParseAll(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]*lang.Program{
		"tpcc1":  tpcc.Programs(tpcc.DefaultConfig(1)),
		"tpcc10": tpcc.Programs(tpcc.DefaultConfig(10)),
		"rubis":  rubis.Programs(rubis.DefaultConfig()),
		"bank":   bank,
	}
}

// pinnedModes are the two analyses a catalog goes through: the optimized
// one that serves scheduling, and the capped unoptimized comparison run
// behind Table I's unoptimized columns.
var pinnedModes = map[string]options{
	"opt":   {useTaint: true, prune: true},
	"unopt": {maxStates: UnoptComparisonBudget, truncateOnBudget: true},
}

// pinnedProfile is what an analysis must reproduce exactly: the digest of
// the marshalled tree with Stats zeroed, and Stats' deterministic counts.
type pinnedProfile struct {
	digest                              string
	states                              int
	total                               float64
	depth, depthMax, keySets, indirects int
	truncated                           bool
}

func pin(t *testing.T, prof *profile.Profile) pinnedProfile {
	st := prof.Stats
	raw, err := profile.Marshal(&profile.Profile{TxName: prof.TxName, Root: prof.Root})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return pinnedProfile{
		digest: hex.EncodeToString(sum[:8]),
		states: st.StatesExplored, total: st.TotalStates,
		depth: st.Depth, depthMax: st.DepthMax,
		keySets: st.UniqueKeySets, indirects: st.IndirectKeys,
		truncated: st.Truncated,
	}
}

// pinnedProfiles were recorded from the map-based solver that preceded the
// prepared path constraint; any change to them is a change of analysis
// result, not of analysis cost.
var pinnedProfiles = map[string]pinnedProfile{
	"bank.opt.deposit":           {"a00c85ecf78dc391", 1, 1, 0, 0, 1, 0, false},
	"bank.opt.openAccount":       {"2d057e0bae39ee81", 1, 1, 0, 0, 1, 1, false},
	"bank.opt.statement":         {"01e1d8fcf6c51ccc", 1, 2048, 0, 11, 1, 0, false},
	"bank.opt.transfer":          {"b20b57246a5e53a2", 3, 2, 1, 1, 2, 1, false},
	"bank.unopt.deposit":         {"a00c85ecf78dc391", 1, 1, 0, 0, 1, 0, false},
	"bank.unopt.openAccount":     {"2d057e0bae39ee81", 1, 1, 0, 0, 1, 1, false},
	"bank.unopt.statement":       {"01e1d8fcf6c51ccc", 1, 2048, 0, 11, 1, 0, false},
	"bank.unopt.transfer":        {"b20b57246a5e53a2", 3, 2, 1, 1, 2, 1, false},
	"rubis.opt.registerItem":     {"369784fb4a08ff6b", 1, 1, 0, 0, 1, 1, false},
	"rubis.opt.registerUser":     {"5d1d17db50258128", 1, 1, 0, 0, 1, 1, false},
	"rubis.opt.storeBid":         {"dc88e7c0e410be7b", 3, 2, 1, 1, 1, 1, false},
	"rubis.opt.storeBuyNow":      {"ebaceaa4bbc99659", 1, 1, 0, 0, 1, 1, false},
	"rubis.opt.storeComment":     {"cc8ecf1210dc0756", 1, 1, 0, 0, 1, 1, false},
	"rubis.opt.viewBidHistory":   {"67bc20af8f28b5d1", 11, 2048, 5, 11, 6, 1, false},
	"rubis.opt.viewItem":         {"6c21745bb3667d97", 1, 1, 0, 0, 1, 0, false},
	"rubis.opt.viewUser":         {"b02ec0b0ff17f017", 1, 1, 0, 0, 1, 0, false},
	"rubis.unopt.registerItem":   {"369784fb4a08ff6b", 1, 1, 0, 0, 1, 1, false},
	"rubis.unopt.registerUser":   {"5d1d17db50258128", 1, 1, 0, 0, 1, 1, false},
	"rubis.unopt.storeBid":       {"f1f3860572732ad3", 3, 2, 1, 1, 1, 2, false},
	"rubis.unopt.storeBuyNow":    {"ebaceaa4bbc99659", 1, 1, 0, 0, 1, 1, false},
	"rubis.unopt.storeComment":   {"cc8ecf1210dc0756", 1, 1, 0, 0, 1, 1, false},
	"rubis.unopt.viewBidHistory": {"67bc20af8f28b5d1", 11, 2048, 5, 11, 6, 1, false},
	"rubis.unopt.viewItem":       {"6c21745bb3667d97", 1, 1, 0, 0, 1, 0, false},
	"rubis.unopt.viewUser":       {"b02ec0b0ff17f017", 1, 1, 0, 0, 1, 0, false},
	"tpcc1.opt.delivery":         {"3970e193d80d20c4", 2047, 2.097152e+06, 10, 21, 1024, 30, false},
	"tpcc1.opt.newOrder":         {"a38120e6c08a12ac", 21, 7.0368744177664e+13, 10, 46, 11, 1, false},
	"tpcc1.opt.orderStatus":      {"2ae5322ae3a23ce7", 3, 2, 1, 1, 2, 1, false},
	"tpcc1.opt.payment":          {"0329b4937b9928b0", 1, 1, 0, 0, 1, 0, false},
	"tpcc1.opt.stockLevel":       {"972f9a99547578c7", 21, 2.147483648e+09, 10, 31, 11, 11, false},
	"tpcc1.unopt.delivery":       {"3970e193d80d20c4", 2047, 2.097152e+06, 10, 21, 1024, 30, false},
	"tpcc1.unopt.newOrder":       {"2238bdae4381cfb3", 9297, 7.0368744177664e+13, 40, 46, 11, 16, true},
	"tpcc1.unopt.orderStatus":    {"2ae5322ae3a23ce7", 3, 2, 1, 1, 2, 1, false},
	"tpcc1.unopt.payment":        {"0329b4937b9928b0", 1, 1, 0, 0, 1, 0, false},
	"tpcc1.unopt.stockLevel":     {"dd7a929af571e62c", 4093, 2.147483648e+09, 20, 31, 11, 21, false},
	"tpcc10.opt.delivery":        {"13a7160d17d7cfaf", 2047, 2.097152e+06, 10, 21, 1024, 30, false},
	"tpcc10.opt.newOrder":        {"a2734ce434c140c3", 21, 7.0368744177664e+13, 10, 46, 11, 1, false},
	"tpcc10.opt.orderStatus":     {"5a2b6a54124954e1", 3, 2, 1, 1, 2, 1, false},
	"tpcc10.opt.payment":         {"f57eb55c82f3bd54", 1, 1, 0, 0, 1, 0, false},
	"tpcc10.opt.stockLevel":      {"dcd6a8d99db8f6f0", 21, 2.147483648e+09, 10, 31, 11, 11, false},
	"tpcc10.unopt.delivery":      {"13a7160d17d7cfaf", 2047, 2.097152e+06, 10, 21, 1024, 30, false},
	"tpcc10.unopt.newOrder":      {"2c7e7b819a8bf8aa", 9297, 7.0368744177664e+13, 40, 46, 11, 16, true},
	"tpcc10.unopt.orderStatus":   {"5a2b6a54124954e1", 3, 2, 1, 1, 2, 1, false},
	"tpcc10.unopt.payment":       {"f57eb55c82f3bd54", 1, 1, 0, 0, 1, 0, false},
	"tpcc10.unopt.stockLevel":    {"a26c5fb90510bf3f", 4093, 2.147483648e+09, 20, 31, 11, 21, false},
}

// TestAnalysisProfilesPinned: the symbolic executor and its solver may get
// cheaper, never different. Every profile of the pinned catalogs, optimized
// and capped-unoptimized, must match its recorded digest and counts.
func TestAnalysisProfilesPinned(t *testing.T) {
	for cat, progs := range pinnedCatalogs(t) {
		for mode, opts := range pinnedModes {
			for _, p := range progs {
				name := cat + "." + mode + "." + p.Name
				prof, err := analyze(p, opts)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				got := pin(t, prof)
				if want, ok := pinnedProfiles[name]; !ok || got != want {
					t.Errorf("%s: got %#v, want %#v; as an entry:\n\t%q: {%q, %d, %v, %d, %d, %d, %d, %v},",
						name, got, want, name, got.digest, got.states, got.total,
						got.depth, got.depthMax, got.keySets, got.indirects, got.truncated)
				}
			}
		}
	}
}

// TestMeasureMatchesAnalyze: Table I's analysis derives the profile the
// registry's does, and only it pays for the memory figures and the
// unoptimized comparison run.
func TestMeasureMatchesAnalyze(t *testing.T) {
	cats := pinnedCatalogs(t)
	for _, cat := range []string{"tpcc1", "rubis"} {
		for _, p := range cats[cat] {
			name := cat + "." + p.Name
			a, err := Analyze(p)
			if err != nil {
				t.Fatalf("%s: Analyze: %v", name, err)
			}
			m, err := Measure(p, nil)
			if err != nil {
				t.Fatalf("%s: Measure: %v", name, err)
			}
			if got, want := pin(t, m), pin(t, a); got != want {
				t.Errorf("%s: Measure %#v, Analyze %#v", name, got, want)
			}
			if a.Stats.Duration <= 0 || m.Stats.Duration <= 0 {
				t.Errorf("%s: durations %v / %v, want both set", name, a.Stats.Duration, m.Stats.Duration)
			}
			as := a.Stats
			if as.MemoryBytes != 0 || as.MemoryBytesUnopt != 0 || as.DurationUnopt != 0 || as.StatesUnopt != 0 || as.UnoptTruncated {
				t.Errorf("%s: Analyze filled Measure's columns: %+v", name, as)
			}
			ms := m.Stats
			if ms.MemoryBytes == 0 || ms.MemoryBytesUnopt == 0 || ms.DurationUnopt == 0 || ms.StatesUnopt == 0 {
				t.Errorf("%s: Measure left a column empty: %+v", name, ms)
			}
		}
	}
}
