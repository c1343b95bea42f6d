package replica

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// sessionRun is one committed log played out by the clients of two
// sessions, each with up to three concurrent submits, as Cluster.SubmitBatch
// runs them: a submit takes the next Seq of its session, proposes it any
// number of times with Low the lowest Seq of its session's running submits,
// and returns either after a proposal committed or on giving up. A proposal
// commits in any order with the others or is lost, and a session-less batch
// now and then commits between them. Every batch executes one transaction
// named after its session and Seq.
type sessionRun struct {
	cmds [][]byte // the committed log, index i+1 at cmds[i]
	// once are the transactions whose first occurrence committed while
	// their submit was running: each must execute exactly once. Every other
	// transaction in the log (abandoned submits) executes at most once.
	once map[string]bool
	all  map[string]bool
}

// genSessionRun plays steps random steps, each choice drawn from pick(n),
// which returns a number in [0, n).
func genSessionRun(t testing.TB, steps int, pick func(n int) int) sessionRun {
	type proposal struct {
		id       string
		seq, low uint64
	}
	run := sessionRun{once: map[string]bool{}, all: map[string]bool{}}
	ids := []string{"s0", "s1"}
	last := map[string]uint64{}
	running := map[string][]uint64{}
	var pending []proposal
	name := func(id string, seq uint64) string { return fmt.Sprintf("%s/%d", id, seq) }
	commit := func(b sequencer.Batch) {
		cmd, err := sequencer.EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		run.cmds = append(run.cmds, cmd)
		run.all[b.Requests[0].TxName] = true
	}
	for step := 0; step < steps; step++ {
		id := ids[pick(len(ids))]
		switch pick(6) {
		case 0: // a submit starts
			if len(running[id]) < 3 {
				last[id]++
				running[id] = append(running[id], last[id])
			}
		case 1: // a running submit proposes
			if r := running[id]; len(r) > 0 {
				pending = append(pending, proposal{id, r[pick(len(r))], slices.Min(r)})
			}
		case 2, 3: // a proposal commits
			if len(pending) == 0 {
				continue
			}
			i := pick(len(pending))
			p := pending[i]
			pending = slices.Delete(pending, i, i+1)
			tx := name(p.id, p.seq)
			if slices.Contains(running[p.id], p.seq) && !run.all[tx] {
				run.once[tx] = true
			}
			commit(sequencer.Batch{ID: p.id, Seq: p.seq, Low: p.low, Requests: []engine.Request{{TxName: tx}}})
		case 4: // a submit returns: acknowledged or given up on
			if r := running[id]; len(r) > 0 {
				i := pick(len(r))
				running[id] = slices.Delete(r, i, i+1)
			}
		case 5: // a proposal is lost, or a batch without a session commits
			if len(pending) > 0 && pick(2) == 0 {
				i := pick(len(pending))
				pending = slices.Delete(pending, i, i+1)
			} else {
				tx := fmt.Sprintf("free/%d", len(run.cmds))
				run.once[tx] = true
				commit(sequencer.Batch{Requests: []engine.Request{{TxName: tx}}})
			}
		}
	}
	return run
}

// applyLog feeds entries from through to (raft indices) to r.
func applyLog(t testing.TB, r *Replica, cmds [][]byte, from, to int) {
	t.Helper()
	for idx := from; idx <= to; idx++ {
		if err := r.applyOne(raft.Committed{Index: uint64(idx), Term: 1, Cmd: cmds[idx-1]}); err != nil {
			t.Fatal(err)
		}
	}
}

// checkSessionRun applies run's log to three replicas: one fed the whole
// log, one recovered from a journal whose applied hint stops at mid and then
// fed the rest, and one restored from the first's snapshot at snap and then
// fed the rest. All three must end with byte-identical snapshots, and the
// first two must execute each transaction as run allows.
func checkSessionRun(t testing.TB, run sessionRun, mid, snap int) {
	t.Helper()
	n := len(run.cmds)
	exec := newCountingExec()
	live := New("live", exec, store.New())
	applyLog(t, live, run.cmds, 1, snap)
	taken := live.snapshotBytes(t)
	applyLog(t, live, run.cmds, snap+1, n)

	dir := t.TempDir()
	fs, err := raft.OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]raft.Entry, n)
	for i, cmd := range run.cmds {
		entries[i] = raft.Entry{Term: 1, Cmd: cmd}
	}
	if n > 0 {
		err = fs.Append(1, entries)
	}
	if err == nil {
		err = fs.SaveApplied(uint64(mid))
	}
	if err == nil {
		err = fs.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	rexec := newCountingExec()
	recovered := New("recovered", rexec, store.New())
	if _, err := recovered.recover(dir); err != nil {
		t.Fatal(err)
	}
	applyLog(t, recovered, run.cmds, mid+1, n)

	decoded, err := DecodeSnapshot(taken)
	if err != nil {
		t.Fatal(err)
	}
	restored := New("restored", newCountingExec(), store.New())
	restored.restore(decoded)
	applyLog(t, restored, run.cmds, snap+1, n)

	want := live.snapshotBytes(t)
	for _, r := range []*Replica{recovered, restored} {
		if got := r.snapshotBytes(t); !bytes.Equal(got, want) {
			t.Fatalf("%s replica (journal hint %d, snapshot %d) ends with snapshot\n%x\nthe live replica with\n%x", r.ID, mid, snap, got, want)
		}
	}
	for tx := range run.all {
		for _, e := range []*countingExec{exec, rexec} {
			if got := e.count(tx); got > 1 || (run.once[tx] && got != 1) {
				t.Fatalf("%s executed %d times (in flight when it committed: %v)", tx, got, run.once[tx])
			}
		}
	}
	if got, want := live.Batches()+live.Deduped(), n; got != want {
		t.Fatalf("%d executed + %d deduplicated of %d batches", live.Batches(), live.Deduped(), n)
	}
}

// TestDedupExactlyOnceProperty is the randomized property test for session
// deduplication: over random committed logs of concurrent submitters, with
// duplicates, Seqs out of order and abandoned submits, every batch whose
// submit was running when it committed executes exactly once and every
// other at most once; and a replica that recovered mid-way through journal
// replay and one restored from a snapshot end with the same snapshot, dedup
// table included, as a replica fed the whole log.
func TestDedupExactlyOnceProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			run := genSessionRun(t, 40+rng.Intn(160), rng.Intn)
			n := len(run.cmds)
			checkSessionRun(t, run, rng.Intn(n+1), rng.Intn(n+1))
		})
	}
}

// FuzzDedupSessions is TestDedupExactlyOnceProperty with the schedule, the
// journal hint and the snapshot index drawn from the fuzzer's bytes.
func FuzzDedupSessions(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 4, 0, 1, 0, 2, 0})
	f.Add([]byte("\x00\x00\x00\x00\x01\x00\x01\x01\x02\x00\x03\x00\x04\x00\x01\x00\x02\x01\x05\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		run := genSessionRun(t, len(data)/2, pick)
		n := len(run.cmds)
		checkSessionRun(t, run, pick(n+1), pick(n+1))
	})
}

// TestDedupReplayFromJournal: a journal holds every committed occurrence of
// a batch, duplicates included, unlike a log of executed batches. Replaying
// it must execute each batch at most once and rebuild the live replica's
// Batches, Deduped and dedup table, for random session schedules.
func TestDedupReplayFromJournal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			run := genSessionRun(t, 120, rand.New(rand.NewSource(seed)).Intn)
			dir := t.TempDir()
			fs, err := raft.OpenFileStorage(dir)
			if err != nil {
				t.Fatal(err)
			}
			live := New("live", newCountingExec(), store.New())
			live.journal = fs
			for i, cmd := range run.cmds {
				idx := uint64(i + 1)
				if err := fs.Append(idx, []raft.Entry{{Term: 1, Cmd: cmd}}); err != nil {
					t.Fatal(err)
				}
				if err := live.applyOne(raft.Committed{Index: idx, Term: 1, Cmd: cmd}); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}

			exec := newCountingExec()
			r := New("recovered", exec, store.New())
			rep, err := r.recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			for tx := range run.all {
				if got := exec.count(tx); got > 1 || (run.once[tx] && got != 1) {
					t.Fatalf("replay executed %s %d times", tx, got)
				}
			}
			if rep.Batches != live.Batches() || r.Deduped() != live.Deduped() || rep.LastIndex != uint64(len(run.cmds)) {
				t.Fatalf("recovered %d batches (%d deduped) through %d, live %d (%d) through %d",
					rep.Batches, r.Deduped(), rep.LastIndex, live.Batches(), live.Deduped(), len(run.cmds))
			}
			if got, want := r.DedupTable(), live.DedupTable(); !bytes.Equal(got, want) {
				t.Fatalf("recovered dedup table %x, live %x", got, want)
			}
		})
	}
}
