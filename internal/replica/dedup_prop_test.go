package replica

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"prognosticator/internal/engine"
	"prognosticator/internal/raft"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
)

// countingExec is a deterministic fake executor that counts how many times
// each transaction name was executed — the observable the dedup property
// checks against.
type countingExec struct {
	mu     sync.Mutex
	counts map[string]int
}

func newCountingExec() *countingExec { return &countingExec{counts: map[string]int{}} }

func (e *countingExec) Name() string { return "counting" }

func (e *countingExec) ExecuteBatch(batch []engine.Request) (*engine.BatchResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range batch {
		e.counts[r.TxName]++
	}
	return &engine.BatchResult{}, nil
}

func (e *countingExec) count(tx string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counts[tx]
}

// dedupSchedule is one randomized committed sequence: every batch ID appears
// at 1-3 distinct raft indices (the first occurrence is the real commit, the
// rest are ambiguous resubmissions that also committed).
type dedupSchedule struct {
	events []string // events[i] = batch ID committed at raft index i+1
	first  map[string]uint64
	last   map[string]uint64
}

func genSchedule(rng *rand.Rand) dedupSchedule {
	n := 5 + rng.Intn(20)
	var events []string
	for k := 0; k < n; k++ {
		id := fmt.Sprintf("batch-%d", k)
		for o := 0; o < 1+rng.Intn(3); o++ {
			events = append(events, id)
		}
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	s := dedupSchedule{events: events, first: map[string]uint64{}, last: map[string]uint64{}}
	for i, id := range events {
		idx := uint64(i + 1)
		if _, ok := s.first[id]; !ok {
			s.first[id] = idx
		}
		s.last[id] = idx
	}
	return s
}

// safeWatermark reports whether wm is a valid acknowledgment point: no ID
// acknowledged at or below wm may still have a committed duplicate above it.
// (The cluster guarantees this by acking at the leader's commit index under
// serial submission; the property test enumerates the same invariant.)
func (s dedupSchedule) safeWatermark(wm uint64) bool {
	for id, f := range s.first {
		if f <= wm && s.last[id] > wm {
			return false
		}
	}
	return true
}

// liveAbove counts distinct IDs first applied above wm among indices <= upto —
// exactly the entries the dedup table must still hold after pruning at wm.
func (s dedupSchedule) liveAbove(wm, upto uint64) int {
	n := 0
	for _, f := range s.first {
		if f > wm && f <= upto {
			n++
		}
	}
	return n
}

// TestDedupExactlyOnceProperty is the randomized property test for batch-ID
// deduplication: across random interleavings of duplicate SubmitBatch
// re-proposals, every batch executes exactly once, the watermark only moves
// forward, and watermark pruning keeps the dedup table at exactly the set of
// unacknowledged IDs (zero once everything is acknowledged).
func TestDedupExactlyOnceProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := genSchedule(rng)
			exec := newCountingExec()
			r := New("prop", exec, store.New())

			lastWM := uint64(0)
			for i, id := range s.events {
				idx := uint64(i + 1)
				data, err := sequencer.EncodeBatchID(id, []engine.Request{{TxName: id}})
				if err != nil {
					t.Fatal(err)
				}
				if err := r.applyOne(raft.Committed{Index: idx, Term: 1, Cmd: data}); err != nil {
					t.Fatal(err)
				}
				// At random safe points, acknowledge through idx — exactly
				// what ackWatermark does at the leader's commit index.
				if rng.Intn(3) == 0 && s.safeWatermark(idx) {
					r.SetDedupWatermark(idx)
					wm := r.DedupWatermark()
					if wm < lastWM {
						t.Fatalf("watermark moved backward: %d -> %d", lastWM, wm)
					}
					lastWM = wm
					if got, want := r.DedupSize(), s.liveAbove(wm, idx); got != want {
						t.Fatalf("after ack at %d: dedup table has %d entries, want %d", idx, got, want)
					}
				}
			}

			// Exactly-once: every ID executed once regardless of duplicates.
			for id := range s.first {
				if got := exec.count(id); got != 1 {
					t.Fatalf("batch %s executed %d times, want exactly 1", id, got)
				}
			}
			if got, want := r.Deduped(), len(s.events)-len(s.first); got != want {
				t.Fatalf("deduped = %d, want %d (duplicate occurrences)", got, want)
			}

			// A stale watermark must not move the mark backward.
			r.SetDedupWatermark(lastWM / 2)
			if r.DedupWatermark() != lastWM {
				t.Fatalf("stale watermark lowered the mark to %d", r.DedupWatermark())
			}

			// Final acknowledgment empties the table: dedup memory is bounded
			// by the ack horizon, not by deployment lifetime.
			final := uint64(len(s.events))
			r.SetDedupWatermark(final)
			if r.DedupWatermark() != final {
				t.Fatalf("final watermark = %d, want %d", r.DedupWatermark(), final)
			}
			if r.DedupSize() != 0 {
				t.Fatalf("dedup table holds %d entries after full acknowledgment", r.DedupSize())
			}
		})
	}
}

// TestDedupReplayFromJournal: a journal holds every committed occurrence of
// a batch ID, duplicates included, unlike a log of executed batches. Replaying
// it must execute each ID once and rebuild the live replica's Batches,
// Deduped and dedup table, for random duplicate schedules.
func TestDedupReplayFromJournal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := genSchedule(rand.New(rand.NewSource(seed)))
			dir := t.TempDir()
			fs, err := raft.OpenFileStorage(dir)
			if err != nil {
				t.Fatal(err)
			}
			live := New("live", newCountingExec(), store.New())
			live.journal = fs
			for i, id := range s.events {
				idx := uint64(i + 1)
				data, err := sequencer.EncodeBatchID(id, []engine.Request{{TxName: id}})
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.Append(idx, []raft.Entry{{Term: 1, Cmd: data}}); err != nil {
					t.Fatal(err)
				}
				if err := live.applyOne(raft.Committed{Index: idx, Term: 1, Cmd: data}); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}

			exec := newCountingExec()
			r := New("recovered", exec, store.New())
			rep, err := r.recover(dir, "")
			if err != nil {
				t.Fatal(err)
			}
			for id := range s.first {
				if got := exec.count(id); got != 1 {
					t.Fatalf("replay executed %s %d times, want 1", id, got)
				}
			}
			if rep.Batches != live.Batches() || r.Deduped() != live.Deduped() || rep.LastIndex != uint64(len(s.events)) {
				t.Fatalf("recovered %d batches (%d deduped) through %d, live %d (%d) through %d",
					rep.Batches, r.Deduped(), rep.LastIndex, live.Batches(), live.Deduped(), len(s.events))
			}
			if !maps.Equal(rep.AppliedIDs, live.appliedIDs) {
				t.Fatalf("recovered dedup table %v, live %v", rep.AppliedIDs, live.appliedIDs)
			}
		})
	}
}
