package lint

import (
	"math/rand"
	"strings"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/profile"
	"prognosticator/internal/sym"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
)

func analyze(t *testing.T, src string) (*lang.Program, *profile.Profile) {
	t.Helper()
	p := mustParse(t, src)
	prof, err := symexec.Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return p, prof
}

const transferSrc = `
transaction transfer(src int[0..9], dst int[0..9], amount int[1..100]) {
    s = get ACCOUNTS[src]
    d = get ACCOUNTS[dst]
    if s.bal >= amount {
        s.bal = s.bal - amount
        d.bal = d.bal + amount
        put ACCOUNTS[src] = s
        put ACCOUNTS[dst] = d
    }
}`

func TestSoundnessCleanProfile(t *testing.T) {
	p, prof := analyze(t, transferSrc)
	rep, err := CheckSoundness(p, prof, SoundnessOptions{Samples: 16})
	if err != nil {
		t.Fatalf("CheckSoundness: %v", err)
	}
	if !rep.Sound() {
		t.Fatalf("SE-derived profile flagged unsound: over=%v under=%v errs=%v",
			rep.Over, rep.Under, rep.Errors)
	}
	// 4 boundary samples + 16 random, each against 2 store states.
	if rep.SamplesRun != 40 {
		t.Errorf("SamplesRun = %d, want 40", rep.SamplesRun)
	}
}

func TestSoundnessCleanLoopsAndLists(t *testing.T) {
	src := `
transaction sweep(first int[0..5], count int[1..4]) {
    total = 0
    for i = 0 .. count {
        a = get ACCOUNTS[first + i]
        total = total + a.bal
    }
    emit total = total
}`
	p, prof := analyze(t, src)
	rep, err := CheckSoundness(p, prof, SoundnessOptions{Samples: 16})
	if err != nil {
		t.Fatalf("CheckSoundness: %v", err)
	}
	if !rep.Sound() {
		t.Fatalf("loop profile flagged unsound: over=%v under=%v errs=%v",
			rep.Over, rep.Under, rep.Errors)
	}
}

func TestSoundnessCleanDependentProfile(t *testing.T) {
	// The RUBiS allocate-from-counter pattern: the written key is a pivot.
	src := `
transaction alloc(initial int[0..100]) {
    c = get COUNTERS["x"]
    id = c.next
    put ITEMS[id] = {v: initial}
    c.next = id + 1
    put COUNTERS["x"] = c
}`
	p, prof := analyze(t, src)
	if prof.Class() != profile.ClassDT {
		t.Fatalf("expected DT profile, got %v", prof.Class())
	}
	rep, err := CheckSoundness(p, prof, SoundnessOptions{Samples: 16})
	if err != nil {
		t.Fatalf("CheckSoundness: %v", err)
	}
	if !rep.Sound() {
		t.Fatalf("DT profile flagged unsound: over=%v under=%v errs=%v",
			rep.Over, rep.Under, rep.Errors)
	}
}

// corrupt deep-copies nothing: tests mutate the freshly-analyzed profile.

func TestSoundnessDetectsOverApproximation(t *testing.T) {
	p, prof := analyze(t, transferSrc)
	// Inject a phantom read the execution never performs.
	prof.Root.Seg = append(prof.Root.Seg, profile.Access{
		Table: "ACCOUNTS",
		Key:   []sym.Term{sym.Const{V: value.Int(9999)}},
	})
	rep, err := CheckSoundness(p, prof, SoundnessOptions{Samples: 8})
	if err != nil {
		t.Fatalf("CheckSoundness: %v", err)
	}
	if len(rep.Over) == 0 {
		t.Fatalf("phantom access not reported as over-approximation")
	}
	if len(rep.Under) != 0 {
		t.Errorf("unexpected under-approximations: %v", rep.Under)
	}
	m := rep.Over[0]
	if m.Kind != Over || m.Write {
		t.Errorf("mismatch %v, want an over-approximated read", m)
	}
	// Over-approximations cost parallelism, not determinism: warning.
	fs := rep.Findings()
	if MaxSeverity(fs) != SevWarning {
		t.Errorf("over-approximation findings %v, want max severity warning", fs)
	}
	if !strings.Contains(fs[0].Message, "never touches") {
		t.Errorf("unexpected message %q", fs[0].Message)
	}
}

func TestSoundnessDetectsUnderApproximation(t *testing.T) {
	p, prof := analyze(t, transferSrc)
	// Drop the first access (the read of ACCOUNTS[src]): the execution
	// touches a key the profile no longer predicts.
	if len(prof.Root.Seg) == 0 {
		t.Fatalf("profile root has no access segment to corrupt")
	}
	prof.Root.Seg = prof.Root.Seg[1:]
	rep, err := CheckSoundness(p, prof, SoundnessOptions{Samples: 8})
	if err != nil {
		t.Fatalf("CheckSoundness: %v", err)
	}
	if len(rep.Under) == 0 {
		t.Fatalf("missing access not reported as under-approximation")
	}
	// Under-approximation breaks determinism: error severity.
	fs := rep.Findings()
	if MaxSeverity(fs) != SevError {
		t.Errorf("under-approximation findings %v, want max severity error", fs)
	}
	found := false
	for _, f := range fs {
		if f.Severity == SevError && strings.Contains(f.Message, "misses a key") {
			found = true
		}
	}
	if !found {
		t.Errorf("no misses-a-key error in %v", fs)
	}
}

func TestSoundnessDetectsBadDirectMark(t *testing.T) {
	// Re-analyze the allocate-from-counter DT and corrupt a pivot-dependent
	// access with a Direct mark: the engine would then instantiate it without
	// the pivot read it needs. The checker must reject the profile.
	src := `
transaction alloc(initial int[0..100]) {
    c = get COUNTERS["x"]
    id = c.next
    put ITEMS[id] = {v: initial}
    c.next = id + 1
    put COUNTERS["x"] = c
}`
	p, prof := analyze(t, src)
	corrupted := false
	var walk func(n *profile.Node)
	walk = func(n *profile.Node) {
		if n == nil {
			return
		}
		for i, a := range n.Seg {
			if a.Indirect() && !corrupted {
				n.Seg[i].Direct = true
				corrupted = true
			}
		}
		walk(n.True)
		walk(n.False)
	}
	walk(prof.Root)
	if !corrupted {
		t.Fatalf("alloc profile has no pivot-dependent access to corrupt")
	}
	rep, err := CheckSoundness(p, prof, SoundnessOptions{Samples: 4})
	if err != nil {
		t.Fatalf("CheckSoundness: %v", err)
	}
	if rep.Sound() {
		t.Fatalf("pivot-dependent access marked Direct not rejected")
	}
	found := false
	for _, e := range rep.Errors {
		if strings.Contains(e, "marked Direct") {
			found = true
		}
	}
	if !found {
		t.Errorf("no marked-Direct error in %v", rep.Errors)
	}
}

func TestSoundnessDetectsWrongBranchSense(t *testing.T) {
	p, prof := analyze(t, transferSrc)
	// Swap the branch arms at the root condition: the profile now predicts
	// the write set exactly when the execution does not perform it.
	if prof.Root.Cond == nil {
		t.Fatalf("expected a conditional profile root")
	}
	prof.Root.True, prof.Root.False = prof.Root.False, prof.Root.True
	rep, err := CheckSoundness(p, prof, SoundnessOptions{Samples: 16})
	if err != nil {
		t.Fatalf("CheckSoundness: %v", err)
	}
	if len(rep.Over) == 0 || len(rep.Under) == 0 {
		t.Fatalf("swapped branches should produce both directions: over=%v under=%v",
			rep.Over, rep.Under)
	}
}

func TestSoundnessDeterministic(t *testing.T) {
	p, prof := analyze(t, transferSrc)
	prof.Root.Seg = append(prof.Root.Seg, profile.Access{
		Table: "ACCOUNTS",
		Key:   []sym.Term{sym.Const{V: value.Int(777)}},
		Write: true,
	})
	run := func() *SoundnessReport {
		rep, err := CheckSoundness(p, prof, SoundnessOptions{Samples: 8, Seed: 42})
		if err != nil {
			t.Fatalf("CheckSoundness: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Over) != len(b.Over) || len(a.Under) != len(b.Under) || a.SamplesRun != b.SamplesRun {
		t.Fatalf("same seed, different reports: %+v vs %+v", a, b)
	}
	for i := range a.Over {
		if a.Over[i].Key.Encode() != b.Over[i].Key.Encode() {
			t.Fatalf("same seed, different mismatch keys")
		}
	}
}

func TestEffectiveLen(t *testing.T) {
	elem := lang.IntParam("", 0, 9)
	lst := lang.Param{Name: "ids", Kind: value.KindList, Elem: &elem, MaxLen: 5, LenParam: "n"}
	cases := []struct {
		n    value.Value
		want int
	}{
		{value.Int(0), 0},
		{value.Int(3), 3},
		{value.Int(5), 5},
		{value.Int(99), 5},  // clamped to capacity
		{value.Int(-1), 0},  // clamped to empty
		{value.Str("x"), 5}, // non-int length parameter: full capacity
	}
	for _, c := range cases {
		if got := effectiveLen(lst, map[string]value.Value{"n": c.n}); got != c.want {
			t.Errorf("effectiveLen(n=%v) = %d, want %d", c.n, got, c.want)
		}
	}
	// No length parameter declared, or not present in the assignment.
	noLen := lst
	noLen.LenParam = ""
	if got := effectiveLen(noLen, nil); got != 5 {
		t.Errorf("effectiveLen without LenParam = %d, want 5", got)
	}
	if got := effectiveLen(lst, map[string]value.Value{}); got != 5 {
		t.Errorf("effectiveLen with unassigned LenParam = %d, want 5", got)
	}
}

// TestSoundnessSamplesEffectiveListLength: sampled list lengths must track
// the sampled value of the list's length parameter (not always fill to
// MaxLen capacity), so loops bounded by the length parameter get exercised
// on short lists too.
func TestSoundnessSamplesEffectiveListLength(t *testing.T) {
	src := `
transaction batchGet(n int[0..4], ids list[int[0..9]; 8; n]) {
    total = 0
    for i = 0..n {
        a = get ACCOUNTS[ids[i]]
        total = total + a.bal
    }
    emit total = total
}`
	p := mustParse(t, src)
	check := func(inputs map[string]value.Value) {
		t.Helper()
		n := inputs["n"].MustInt()
		lst := inputs["ids"]
		if got := int64(lst.Len()); got != n {
			t.Errorf("sampled list length %d for n=%d (inputs %s)", got, n, renderInputs(inputs))
		}
	}
	for _, s := range boundarySamples(p) {
		check(s)
	}
	rng := rand.New(rand.NewSource(7))
	sawShort := false
	for i := 0; i < 32; i++ {
		s, err := randomSample(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		check(s)
		if s["n"].MustInt() < 4 {
			sawShort = true
		}
	}
	if !sawShort {
		t.Error("32 random samples never drew a short list")
	}

	// End-to-end: the SE-derived profile must stay sound under
	// effective-length sampling.
	prof, err := symexec.Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	rep, err := CheckSoundness(p, prof, SoundnessOptions{Samples: 16})
	if err != nil {
		t.Fatalf("CheckSoundness: %v", err)
	}
	if !rep.Sound() {
		t.Fatalf("length-dependent profile flagged unsound: over=%v under=%v errs=%v",
			rep.Over, rep.Under, rep.Errors)
	}
}

func TestSoundnessNilProfile(t *testing.T) {
	p := mustParse(t, transferSrc)
	if _, err := CheckSoundness(p, nil, SoundnessOptions{}); err == nil {
		t.Fatalf("nil profile accepted")
	}
}
