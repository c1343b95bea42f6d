package harness

import (
	"testing"
	"time"

	"prognosticator/internal/engine"
)

func virtualOpts() Options {
	return Options{
		BatchInterval: 10 * time.Millisecond,
		P99SLA:        10 * time.Millisecond,
		Batches:       10,
		Warmup:        2,
		StartSize:     8,
		MaxSize:       128,
		Growth:        2,
		Workers:       8,
		Seed:          1,
	}
}

// TestVirtualRunPointDeterministic: the cost-model simulator must yield
// bit-identical figures across repeated runs — the property that makes the
// benchmark results reproducible.
func TestVirtualRunPointDeterministic(t *testing.T) {
	wl, err := TPCCWorkload(tinyTPCC(2))
	if err != nil {
		t.Fatal(err)
	}
	sys := PrognosticatorSystem("MQ-MF", engineConfigMQMF())
	first, err := RunPoint(sys, wl, 16, virtualOpts())
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		pt, err := RunPoint(sys, wl, 16, virtualOpts())
		if err != nil {
			t.Fatal(err)
		}
		if pt.P99 != first.P99 || pt.Throughput != first.Throughput || pt.AbortPct != first.AbortPct {
			t.Fatalf("virtual run diverged: %+v vs %+v", pt, first)
		}
	}
	if first.Throughput <= 0 || first.P99 <= 0 {
		t.Fatalf("degenerate point: %+v", first)
	}
}

// TestVirtualParallelismShapesThroughput: the simulated MQ-MF engine with
// many virtual workers must sustain clearly more than the sequential
// baseline at low contention — the paper's Fig. 3a backbone, impossible to
// demonstrate with real threads on a single-core host.
func TestVirtualParallelismShapesThroughput(t *testing.T) {
	wl, err := TPCCWorkload(tinyTPCC(8))
	if err != nil {
		t.Fatal(err)
	}
	opts := virtualOpts()
	opts.Workers = 16
	mqmf, err := MaxSustainable(PrognosticatorSystem("MQ-MF", engineConfigMQMF()), wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := MaxSustainable(SEQSystem(), wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mqmf.Best.Throughput < 2*seq.Best.Throughput {
		t.Fatalf("MQ-MF (%v) should beat SEQ (%v) by >= 2x at low contention",
			mqmf.Best.Throughput, seq.Best.Throughput)
	}
}

// TestVirtualReconSlowerThanSE: the -R variants must pay more preparation
// time than the SE variants — the paper's Fig. 5 core claim, structural in
// the cost model.
func TestVirtualReconSlowerThanSE(t *testing.T) {
	wl, err := TPCCWorkload(tinyTPCC(4))
	if err != nil {
		t.Fatal(err)
	}
	opts := virtualOpts()
	se, err := RunPoint(PrognosticatorSystem("MQ-MF", engineConfigMQMF()), wl, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	rCfg := engine.Config{Queue: engine.QueueMulti, Fail: engine.FailReenqueue, Prepare: engine.PrepareRecon}
	recon, err := RunPoint(PrognosticatorSystem("MQ-MF-R", rCfg), wl, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if recon.MeanPrepare <= se.MeanPrepare {
		t.Fatalf("recon prepare (%v) must exceed SE prepare (%v)",
			recon.MeanPrepare, se.MeanPrepare)
	}
}
