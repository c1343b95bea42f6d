package locktable_test

import (
	"fmt"
	"strings"
	"testing"

	"prognosticator/internal/engine"
	"prognosticator/internal/history"
	"prognosticator/internal/locktable"
	"prognosticator/internal/profile"
	"prognosticator/internal/value"
)

// TestCheckTracedCatchesLIFOGrants is the mutation-style negative test for
// the serializability oracle: a deliberately planted lock-table ordering
// bug (LIFO grants instead of FIFO) makes three conflicting blind writes to
// one key run in the order 1,3,2 — the final state disagrees with the agreed
// order, the exact failure a deterministic database must never exhibit.
// Blind writes are the blind spot of the untraced checker (no read can be
// fractured or stale, and WW edges are inferred FROM the assumed order), so
// it MUST accept the corrupted history — that is what makes the traced
// variant worth building — while the lock-grant-traced checker MUST reject
// it as a DSG cycle. The healthy engine-driven run is covered by
// history.TestCheckTracedAcceptsEngineTrace.
func TestCheckTracedCatchesLIFOGrants(t *testing.T) {
	lt := locktable.New()
	lt.EnableTrace(true)
	lt.SetUnsafeLIFOGrants(true)

	key := value.NewKey("ACC", value.Int(0)).Encode()
	var entries []*locktable.Entry
	for seq := uint64(1); seq <= 3; seq++ {
		entries = append(entries, &locktable.Entry{Seq: seq, Keys: locktable.ExclusiveKeys([]value.Encoded{key})})
	}
	// The engine's round: enqueue in agreed order, run whatever is ready,
	// release, run what the release readied.
	var ready []*locktable.Entry
	for _, e := range entries {
		if lt.Enqueue(e) {
			ready = append(ready, e)
		}
	}
	var ran []uint64
	var ops []history.Op
	for len(ready) > 0 {
		e := ready[0]
		ready = ready[1:]
		ran = append(ran, e.Seq)
		ops = append(ops, history.Op{
			ID: fmt.Sprintf("b1/%d", e.Seq), Index: 1, Seq: e.Seq, Name: "set", Class: profile.ClassIT,
			Writes: []engine.Access{{Key: string(key), Val: fmt.Sprintf("v%d", e.Seq)}},
		})
		lt.Release(e, func(next *locktable.Entry) { ready = append(ready, next) })
	}
	if got := fmt.Sprint(ran); got != "[1 3 2]" {
		t.Fatalf("execution order under LIFO grants = %s, want [1 3 2] (seq 2 commits last)", got)
	}
	traces := map[uint64][]locktable.Record{1: lt.CollectTrace(0)}

	if err := history.Check(ops, nil); err != nil {
		t.Fatalf("untraced checker unexpectedly caught the LIFO bug (test premise broken): %v", err)
	}
	err := history.CheckTraced(ops, traces, nil)
	if err == nil {
		t.Fatal("traced checker accepted a history executed under LIFO lock grants")
	}
	if !strings.Contains(err.Error(), "DSG cycle") {
		t.Fatalf("traced checker rejected for the wrong reason: %v", err)
	}
}
