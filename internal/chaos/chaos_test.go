package chaos

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/replica"
	"prognosticator/internal/store"
	"prognosticator/internal/vclock"
	"prognosticator/internal/wal"
)

func TestPlanIsDeterministic(t *testing.T) {
	a := New(nil, Config{Seed: 7, Steps: 40})
	b := New(nil, Config{Seed: 7, Steps: 40})
	pa, pb := a.Plan(), b.Plan()
	if len(pa) != 40 || len(pb) != 40 {
		t.Fatalf("plan lengths %d/%d, want 40", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("plans diverge at step %d: %v vs %v", i, pa[i], pb[i])
		}
	}
	c := New(nil, Config{Seed: 8, Steps: 40})
	same := true
	for i, f := range c.Plan() {
		if f != pa[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlanContainsAnchors(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99} {
		in := New(nil, Config{Seed: seed, Steps: 12})
		have := map[Fault]bool{}
		for _, f := range in.Plan() {
			have[f] = true
		}
		for _, a := range anchors {
			if !have[a] {
				t.Fatalf("seed %d: plan missing anchor %v", seed, a)
			}
		}
	}
}

func TestPlanPadsToAnchorCount(t *testing.T) {
	in := New(nil, Config{Seed: 1, Steps: 1})
	if in.Steps() != len(anchors) {
		t.Fatalf("steps = %d, want padded to %d", in.Steps(), len(anchors))
	}
}

// writeWAL fills dir with a few records and returns the record count.
func writeWAL(t *testing.T, dir string) int {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%d-payload-with-some-bulk", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// checkCrashDamage corrupts a fresh n-record log with mode under rng seeds
// 0..seeds-1 and requires what a crash mid-append leaves: every record
// intact, a damaged frame after them, and a repair that restores the log
// to its bytes before the damage.
func checkCrashDamage(t *testing.T, mode CorruptMode, seeds int64) {
	t.Helper()
	for seed := int64(0); seed < seeds; seed++ {
		dir := t.TempDir()
		n := writeWAL(t, dir)
		segs, err := wal.SegmentPaths(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		clean, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := CorruptTail(dir, mode, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		stats, err := wal.Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Truncated || stats.Records != n || stats.BadOffset != int64(len(clean)) {
			t.Fatalf("%v, seed %d: %+v; want all %d records intact and damage at offset %d",
				mode, seed, stats, n, len(clean))
		}
		if _, err := wal.Repair(dir); err != nil {
			t.Fatal(err)
		}
		if repaired, err := os.ReadFile(segs[0]); err != nil || !bytes.Equal(repaired, clean) {
			t.Fatalf("%v, seed %d: repair left %d bytes (%v), the log held %d", mode, seed, len(repaired), err, len(clean))
		}
	}
}

func TestCorruptTailTorn(t *testing.T) { checkCrashDamage(t, CorruptTorn, 16) }

func TestCorruptTailBitFlip(t *testing.T) { checkCrashDamage(t, CorruptBitFlip, 64) }

func TestCorruptTailEmptyLog(t *testing.T) {
	dir := t.TempDir()
	// No segments at all.
	if err := CorruptTail(dir, CorruptTorn, rand.New(rand.NewSource(3))); err != ErrNothingToCorrupt {
		t.Fatalf("err = %v, want ErrNothingToCorrupt", err)
	}
	// An opened-but-never-appended log has one empty segment.
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := CorruptTail(dir, CorruptBitFlip, rand.New(rand.NewSource(3))); err != ErrNothingToCorrupt {
		t.Fatalf("err = %v, want ErrNothingToCorrupt", err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}

// TestLossFreeOdds: the odds that loss dropped nothing stay 1 while loss and
// clear-loss fire with nothing sent in between, and fall with every message
// the fabric is offered while loss is in force — which is what lets a soak
// demand loss drops exactly when traffic ran under loss.
func TestLossFreeOdds(t *testing.T) {
	sim := vclock.NewSim(3)
	clk := sim.Clock()
	reg := bankRegistry(t)
	if err := sim.Run(func() {
		c, err := replica.NewCluster(replica.ClusterConfig{
			Replicas: 3, Seed: 3, Clock: clk,
			NewExecutor: func(id string, st *store.Store) (engine.Executor, error) {
				return engine.New(reg, st, engine.Config{Workers: 2}), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		if _, err := c.WaitLeader(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		in := New(c, Config{Seed: 3})
		step := func(f Fault) {
			in.stepMu.Lock()
			defer in.stepMu.Unlock()
			if _, err := in.apply(f); err != nil {
				t.Fatal(err)
			}
		}
		// On the simulated clock nothing runs between two calls of this
		// actor, so back to back means no message in between.
		step(InjectLoss)
		step(ClearLoss)
		if got := in.LossFreeOdds(); got != 1 {
			t.Errorf("odds after loss, clear-loss back to back = %v, want 1", got)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 3; i++ { // traffic without loss does not count
			if err := c.SubmitBatch(bankBatch(rng, 4), 30*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if got := in.LossFreeOdds(); got != 1 {
			t.Errorf("odds after loss-free traffic = %v, want 1", got)
		}
		step(InjectLoss)
		before := c.Net.Stats()
		for i := 0; i < 10; i++ {
			if err := c.SubmitBatch(bankBatch(rng, 4), 30*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Quiesce(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		after := c.Net.Stats()
		offered := after.Delivered + after.DroppedLoss - before.Delivered - before.DroppedLoss
		// At the lowest loss rate a step draws, 5 %.
		if got, most := in.LossFreeOdds(), math.Pow(0.95, float64(offered)); got > most || got <= 0 {
			t.Errorf("odds after %d messages under loss = %v, want in (0, %v]", offered, got, most)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
