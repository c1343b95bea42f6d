package rubis

import (
	"testing"

	"prognosticator/internal/engine"
	"prognosticator/internal/profile"
	"prognosticator/internal/store"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
)

func smallConfig() Config { return Config{Users: 50, Items: 50} }

func TestProgramsValidate(t *testing.T) {
	schema := Schema()
	for _, p := range Programs(smallConfig()) {
		if err := schema.Validate(p); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestAllUpdateTransactionsAreDT reproduces the paper's observation: every
// RUBiS update transaction generates a unique identifier by consulting the
// store, so all five are dependent transactions.
func TestAllUpdateTransactionsAreDT(t *testing.T) {
	cfg := smallConfig()
	for _, p := range UpdatePrograms(cfg) {
		prof, err := symexec.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if prof.Class() != profile.ClassDT {
			t.Errorf("%s class = %v, want DT", p.Name, prof.Class())
		}
		if prof.Stats.IndirectKeys < 1 {
			t.Errorf("%s has %d indirect keys, want >= 1", p.Name, prof.Stats.IndirectKeys)
		}
	}
}

func TestViewsAreROT(t *testing.T) {
	cfg := smallConfig()
	for _, prog := range Programs(cfg)[5:] {
		prof, err := symexec.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Class() != profile.ClassROT {
			t.Errorf("%s class = %v, want ROT", prog.Name, prof.Class())
		}
	}
}

func registry(t testing.TB) *engine.Registry {
	t.Helper()
	reg, err := engine.NewRegistry(Schema(), Programs(smallConfig())...)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func populated() *store.Store {
	st := store.New()
	Populate(st, smallConfig())
	return st
}

func TestStoreBidEndToEnd(t *testing.T) {
	reg := registry(t)
	st := populated()
	e := engine.New(reg, st, engine.Config{Workers: 4})
	res, err := e.ExecuteBatch([]engine.Request{
		{Seq: 1, TxName: "storeBid", Inputs: map[string]value.Value{
			"itemId": value.Int(3), "userId": value.Int(5), "amount": value.Int(777),
		}},
		{Seq: 2, TxName: "storeBid", Inputs: map[string]value.Value{
			"itemId": value.Int(3), "userId": value.Int(6), "amount": value.Int(888),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The second bid's slot depends on the first bid's nbBids increment:
	// it must abort once (stale pivot) and land in slot 1 on retry.
	if res.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1 (conflicting bid slots)", res.Aborts)
	}
	item, _ := st.Get(st.Epoch(), value.NewKey(TItems, value.Int(3)))
	if f, _ := item.Field("nbBids"); f.MustInt() != 2 {
		t.Fatalf("nbBids = %v", item)
	}
	if f, _ := item.Field("maxBid"); f.MustInt() != 888 {
		t.Fatalf("maxBid = %v", item)
	}
	bid0, ok := st.Get(st.Epoch(), value.NewKey(TBids, value.Int(3), value.Int(0)))
	if !ok {
		t.Fatal("bid slot 0 missing")
	}
	if f, _ := bid0.Field("amount"); f.MustInt() != 777 {
		t.Fatalf("bid0 = %v", bid0)
	}
	if _, ok := st.Get(st.Epoch(), value.NewKey(TBids, value.Int(3), value.Int(1))); !ok {
		t.Fatal("bid slot 1 missing")
	}
}

// TestRegisterUserAssignsUniqueIDs also reproduces the paper's RUBiS abort
// pathology (§IV-B): N same-batch transactions contending on one id counter
// all predict the same slot; each round of MF re-execution commits exactly
// one, so MF suffers O(N^2) aborts while SF pays N and finishes the rest
// sequentially — the reason MQ-SF beats MQ-MF on RUBiS-C.
func TestRegisterUserAssignsUniqueIDs(t *testing.T) {
	const n = 10
	cases := map[engine.FailMode]int{
		engine.FailReenqueue:  n * (n - 1) / 2, // one commit per MF round
		engine.FailSequential: n - 1,           // one failed round, then sequential
	}
	for failMode, wantAborts := range cases {
		t.Run(failMode.String(), func(t *testing.T) {
			reg := registry(t)
			st := populated()
			e := engine.New(reg, st, engine.Config{Workers: 4, Fail: failMode})
			var batch []engine.Request
			for i := 0; i < n; i++ {
				batch = append(batch, engine.Request{Seq: uint64(i + 1), TxName: "registerUser",
					Inputs: map[string]value.Value{"rating": value.Int(int64(i % 6))}})
			}
			res, err := e.ExecuteBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborts != wantAborts {
				t.Fatalf("aborts = %d, want %d", res.Aborts, wantAborts)
			}
			seen := map[int64]bool{}
			for _, o := range res.Outcomes {
				id := o.Emitted["userId"].MustInt()
				if seen[id] {
					t.Fatalf("duplicate user id %d", id)
				}
				seen[id] = true
			}
			ids, _ := st.Get(st.Epoch(), value.NewKey(TIDs, value.Str("users")))
			if f, _ := ids.Field("next"); f.MustInt() != int64(smallConfig().Users+n+1) {
				t.Fatalf("ids.next = %v", ids)
			}
		})
	}
}

func TestDeterminismRUBiS(t *testing.T) {
	cfg := smallConfig()
	reg := registry(t)
	makeBatches := func() [][]engine.Request {
		gen := NewGenerator(cfg, 31)
		var out [][]engine.Request
		seq := uint64(0)
		for b := 0; b < 5; b++ {
			var batch []engine.Request
			for i := 0; i < 40; i++ {
				seq++
				tx, inputs := gen.Next()
				batch = append(batch, engine.Request{Seq: seq, TxName: tx, Inputs: inputs})
			}
			out = append(out, batch)
		}
		return out
	}
	batches := makeBatches()
	var first uint64
	firstAborts := -1
	for _, workers := range []int{1, 4, 8} {
		st := populated()
		e := engine.New(reg, st, engine.Config{Workers: workers})
		aborts := 0
		for _, b := range batches {
			res, err := e.ExecuteBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			aborts += res.Aborts
		}
		h := st.StateHash(st.Epoch())
		if firstAborts < 0 {
			first, firstAborts = h, aborts
			continue
		}
		if h != first {
			t.Fatalf("RUBiS state diverged with %d workers", workers)
		}
		if aborts != firstAborts {
			t.Fatalf("RUBiS aborts diverged: %d vs %d", aborts, firstAborts)
		}
	}
}

func TestGeneratorMix(t *testing.T) {
	gen := NewGenerator(smallConfig(), 3)
	counts := map[string]int{}
	const n = 16000
	for i := 0; i < n; i++ {
		tx, _ := gen.Next()
		counts[tx]++
	}
	if f := float64(counts["storeBid"]) / n; f < 0.46 || f > 0.54 {
		t.Fatalf("storeBid fraction = %v, want ~0.5", f)
	}
	for _, tx := range []string{"storeBuyNow", "storeComment", "registerUser", "registerItem"} {
		if f := float64(counts[tx]) / n; f < 0.09 || f > 0.16 {
			t.Fatalf("%s fraction = %v, want ~0.125", tx, f)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(smallConfig(), 9)
	g2 := NewGenerator(smallConfig(), 9)
	for i := 0; i < 100; i++ {
		tx1, in1 := g1.Next()
		tx2, in2 := g2.Next()
		if tx1 != tx2 || len(in1) != len(in2) {
			t.Fatalf("diverged at %d", i)
		}
		for k, v := range in1 {
			if !in2[k].Equal(v) {
				t.Fatalf("input %s diverged at %d", k, i)
			}
		}
	}
}

func TestPopulateCounters(t *testing.T) {
	st := populated()
	cfg := smallConfig()
	ids, ok := st.Get(0, value.NewKey(TIDs, value.Str("users")))
	if !ok {
		t.Fatal("users counter missing")
	}
	if f, _ := ids.Field("next"); f.MustInt() != int64(cfg.Users+1) {
		t.Fatalf("users.next = %v", ids)
	}
	if st.Len() != cfg.Users+cfg.Items+2 {
		t.Fatalf("populated keys = %d", st.Len())
	}
}
