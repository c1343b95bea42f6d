package engine

import (
	"testing"
	"time"

	"prognosticator/internal/locktable"
	"prognosticator/internal/value"
)

// TestSimMakespanScalesWithWorkers: on a low-contention batch, more virtual
// workers must shrink the virtual makespan substantially — the property the
// single-core host cannot show with real threads.
func TestSimMakespanScalesWithWorkers(t *testing.T) {
	reg := bankRegistry(t)
	mkBatch := func() []Request {
		var batch []Request
		for i := 0; i < 200; i++ {
			batch = append(batch, req(uint64(i+1), "deposit",
				ival("k", i%100, "amt", 5))) // 100 distinct accounts
		}
		return batch
	}
	makespan := func(workers int) time.Duration {
		st := bankStore()
		sim := NewSim(reg, st, Config{Workers: workers})
		res, err := sim.ExecuteBatch(mkBatch())
		if err != nil {
			t.Fatal(err)
		}
		if res.VirtualMakespan <= 0 {
			t.Fatal("no virtual makespan recorded")
		}
		return res.VirtualMakespan
	}
	m1 := makespan(1)
	m8 := makespan(8)
	speedup := float64(m1) / float64(m8)
	if speedup < 3 {
		t.Fatalf("8 virtual workers speedup = %.2fx over 1 (m1=%v m8=%v), want >= 3x",
			speedup, m1, m8)
	}
}

// TestSimSerializedChainNoSpeedup: a fully conflicting chain cannot go
// faster with more workers.
func TestSimSerializedChainNoSpeedup(t *testing.T) {
	reg := bankRegistry(t)
	mkBatch := func() []Request {
		var batch []Request
		for i := 0; i < 100; i++ {
			batch = append(batch, req(uint64(i+1), "deposit", ival("k", 7, "amt", 1)))
		}
		return batch
	}
	run := func(workers int) time.Duration {
		st := bankStore()
		sim := NewSim(reg, st, Config{Workers: workers})
		res, err := sim.ExecuteBatch(mkBatch())
		if err != nil {
			t.Fatal(err)
		}
		return res.VirtualMakespan
	}
	m1, m8 := run(1), run(8)
	// Timing noise allowed, but no structural speedup.
	if float64(m1)/float64(m8) > 1.7 {
		t.Fatalf("conflicting chain sped up %vx with workers — scheduling bug", float64(m1)/float64(m8))
	}
}

// TestSimVDoneMonotoneOnConflicts: conflicting transactions' virtual
// completion times must respect queue order.
func TestSimVDoneMonotoneOnConflicts(t *testing.T) {
	reg := bankRegistry(t)
	st := bankStore()
	sim := NewSim(reg, st, Config{Workers: 4})
	var batch []Request
	for i := 0; i < 20; i++ {
		batch = append(batch, req(uint64(i+1), "deposit", ival("k", 3, "amt", 1)))
	}
	res, err := sim.ExecuteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Outcomes); i++ {
		if res.Outcomes[i].VDone <= res.Outcomes[i-1].VDone {
			t.Fatalf("conflicting tx %d completed at %v, before predecessor's %v",
				i, res.Outcomes[i].VDone, res.Outcomes[i-1].VDone)
		}
	}
	if res.VirtualMakespan < res.Outcomes[len(res.Outcomes)-1].VDone {
		t.Fatal("makespan below last completion")
	}
}

func TestVirtualRoundEmpty(t *testing.T) {
	p := &virtualPool{workers: 4, lt: locktable.New(), now: 5 * time.Millisecond}
	failed, trace, err := p.Round(nil, nil, nil, false, 0)
	if err != nil || len(failed) != 0 || len(trace) != 0 || p.end() != 5*time.Millisecond {
		t.Fatalf("empty round = %v %v %v, makespan %v", failed, trace, err, p.end())
	}
}

func TestDistribute(t *testing.T) {
	clocks := []time.Duration{0, 0}
	for _, c := range []time.Duration{4, 3, 2, 1} {
		distribute(clocks, c)
	}
	// greedy: w0=4, w1=3, w1=3+2=5, w0=4+1=5
	if clocks[0] != 5 || clocks[1] != 5 {
		t.Fatalf("clocks = %v", clocks)
	}
}

func TestSimROTsDontBlockVirtualTime(t *testing.T) {
	// A batch with only ROTs: makespan ≈ max over workers of their ROT
	// queues, and every outcome gets a VDone.
	reg := bankRegistry(t)
	st := bankStore()
	sim := NewSim(reg, st, Config{Workers: 4})
	var batch []Request
	for i := 0; i < 40; i++ {
		batch = append(batch, req(uint64(i+1), "audit", ival("k", i%100)))
	}
	res, err := sim.ExecuteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.ROTs != 40 {
		t.Fatalf("ROTs = %d", res.ROTs)
	}
	for _, o := range res.Outcomes {
		if o.VDone <= 0 {
			t.Fatalf("ROT outcome without VDone: %+v", o)
		}
		if o.Emitted == nil {
			t.Fatalf("ROT outcome without results: %+v", o)
		}
	}
}

// TestSimDeterministicState: repeated sim runs land on the same state even
// though service-time measurements differ run to run (timing affects only
// virtual durations, never the schedule's effects).
func TestSimDeterministicState(t *testing.T) {
	reg := bankRegistry(t)
	batches := randomBatches(5, 6, 40)
	var firstHash uint64
	firstAborts := -1
	for run := 0; run < 3; run++ {
		st := bankStore()
		sim := NewSim(reg, st, Config{Workers: 8})
		aborts := 0
		for _, b := range batches {
			res, err := sim.ExecuteBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			aborts += res.Aborts
		}
		h := st.StateHash(st.Epoch())
		if firstAborts < 0 {
			firstHash, firstAborts = h, aborts
			continue
		}
		if h != firstHash || aborts != firstAborts {
			t.Fatalf("sim run %d diverged (hash %x vs %x, aborts %d vs %d)",
				run, h, firstHash, aborts, firstAborts)
		}
	}
}

func TestSimName(t *testing.T) {
	sim := NewSim(bankRegistry(t), bankStore(), Config{Queue: QueueSingle, Fail: FailSequential})
	if sim.Name() != "1Q-SF" {
		t.Fatalf("name = %q", sim.Name())
	}
	if sim.Store() == nil {
		t.Fatal("store accessor")
	}
	_ = value.Int(0)
}
