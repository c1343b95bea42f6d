// Package harness drives the paper's evaluation methodology (§IV): batches
// arrive at a fixed interval (10 ms in the paper); the transactions-per-
// batch knob is ramped up until the 99th-percentile latency exceeds the SLA
// (10 ms); the largest passing point is the system's maximum sustainable
// throughput. The harness also computes the paper's normalized abort rate
// and the per-transaction prepare / re-execution time breakdown of Fig. 5b.
package harness

import (
	"fmt"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/metrics"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// RequestGen produces workload requests.
type RequestGen interface {
	Next() (txName string, inputs map[string]value.Value)
}

// Workload bundles everything needed to run one benchmark configuration.
type Workload struct {
	Name     string
	Registry *engine.Registry
	// NewStore returns a freshly populated store.
	NewStore func() *store.Store
	// NewGen returns a deterministic request generator.
	NewGen func(seed int64) RequestGen
}

// System names an executor construction on the virtual worker pool the
// harness builds from Options.Workers.
type System struct {
	Name string
	New  func(reg *engine.Registry, st *store.Store, pool engine.Pool) engine.Executor
}

// Options tunes a sweep. The defaults reproduce the paper's methodology at
// laptop scale.
type Options struct {
	BatchInterval time.Duration // paper: 10 ms
	P99SLA        time.Duration // paper: 10 ms
	Batches       int           // measured batches per point
	Warmup        int           // discarded leading batches per point
	StartSize     int           // first batch size tried
	MaxSize       int           // give up above this size
	Growth        float64       // batch-size multiplier between points
	Workers       int           // paper: 20 threads
	Seed          int64
}

func (o Options) withDefaults() Options {
	if o.BatchInterval == 0 {
		o.BatchInterval = 10 * time.Millisecond
	}
	if o.P99SLA == 0 {
		o.P99SLA = 10 * time.Millisecond
	}
	if o.Batches == 0 {
		o.Batches = 30
	}
	if o.Warmup == 0 {
		o.Warmup = 5
	}
	if o.StartSize == 0 {
		o.StartSize = 8
	}
	if o.MaxSize == 0 {
		o.MaxSize = 1 << 14
	}
	if o.Growth == 0 {
		o.Growth = 1.5
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	return o
}

// Point is the measurement at one batch size.
type Point struct {
	BatchSize  int
	Throughput float64 // committed transactions per second
	P99        time.Duration
	Mean       time.Duration
	// AbortPct is the paper's normalized abort rate: failed executions per
	// processed transaction, in percent.
	AbortPct float64
	// Breakdown for Fig. 5b.
	MeanPrepare time.Duration
	MeanReexec  time.Duration // mean total execution time of transactions that aborted at least once
	Pass        bool
}

// Sweep is the result of a max-sustainable-throughput search.
type Sweep struct {
	System   string
	Workload string
	Points   []Point
	// Best is the highest-throughput passing point (zero value if none
	// passed).
	Best Point
}

// MaxSustainable ramps the batch size and returns the sweep. A single
// failing point does not end the search (one GC pause can spoil a point's
// p99 on a busy host); the ramp stops after maxConsecutiveFails failures in
// a row, and the best passing point wins.
func MaxSustainable(sys System, wl Workload, opts Options) (*Sweep, error) {
	opts = opts.withDefaults()
	sw := &Sweep{System: sys.Name, Workload: wl.Name}
	size := opts.StartSize
	fails := 0
	for size <= opts.MaxSize && fails < maxConsecutiveFails {
		pt, err := RunPoint(sys, wl, size, opts)
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, *pt)
		if pt.Pass {
			fails = 0
			if pt.Throughput > sw.Best.Throughput {
				sw.Best = *pt
			}
		} else {
			fails++
		}
		next := int(float64(size) * opts.Growth)
		if next == size {
			next = size + 1
		}
		size = next
	}
	return sw, nil
}

// maxConsecutiveFails ends the batch-size ramp.
const maxConsecutiveFails = 2

// RunPoint measures one (system, workload, batch size) configuration: it
// dispatches Batches+Warmup batches arriving every BatchInterval and reports
// latency, throughput, abort rate and time breakdowns over the measured
// window. Every system runs on engine.NewVirtualPool: real executions
// scheduled across Workers virtual workers, latency and throughput read off
// VDone and VirtualMakespan. This reproduces the paper's 20-core testbed on
// any host, with no wall-clock pacing.
func RunPoint(sys System, wl Workload, batchSize int, opts Options) (*Point, error) {
	opts = opts.withDefaults()
	st := wl.NewStore()
	exec := sys.New(wl.Registry, st, engine.NewVirtualPool(opts.Workers))
	gen := wl.NewGen(opts.Seed)

	lat := metrics.NewHistogram()
	var committed, processed, aborts int
	var prepSum, reexecSum time.Duration
	var prepN, reexecN int

	arrivals := map[uint64]time.Duration{}
	seq := uint64(0)
	var vclock time.Duration
	total := opts.Warmup + opts.Batches
	for b := 0; b < total; b++ {
		arrival := time.Duration(b) * opts.BatchInterval
		// The batch starts when it arrives or when the previous batch's
		// makespan ends, whichever is later.
		if vclock < arrival {
			vclock = arrival
		}
		batchStart := vclock
		batch := make([]engine.Request, batchSize)
		for i := range batch {
			seq++
			tx, inputs := gen.Next()
			batch[i] = engine.Request{Seq: seq, TxName: tx, Inputs: inputs}
			arrivals[seq] = arrival
		}
		res, err := exec.ExecuteBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s size %d: %w", sys.Name, wl.Name, batchSize, err)
		}
		vclock = batchStart + res.VirtualMakespan
		measured := b >= opts.Warmup
		for i := range res.Outcomes {
			o := &res.Outcomes[i]
			if o.Pending {
				// Carried over (Calvin): the aborted attempts count now,
				// and the client re-submits the transaction with the NEXT
				// batch, so its latency clock restarts there — the tx left
				// the system and re-enters (Calvin's client-retry path).
				if measured {
					processed++
					aborts += o.Aborts
				}
				arrivals[o.Seq] = arrival + opts.BatchInterval
				continue
			}
			arr, ok := arrivals[o.Seq]
			if !ok {
				continue
			}
			delete(arrivals, o.Seq)
			if !measured {
				continue
			}
			processed++
			committed++
			lat.Observe(batchStart + o.VDone - arr)
			aborts += o.Aborts
			if o.Prepare > 0 {
				prepSum += o.Prepare
				prepN++
			}
			if o.Aborts > 0 {
				reexecSum += o.Exec
				reexecN++
			}
		}
	}
	elapsed := time.Duration(opts.Batches) * opts.BatchInterval
	pt := &Point{
		BatchSize:  batchSize,
		Throughput: float64(committed) / elapsed.Seconds(),
		P99:        lat.Percentile(99),
		Mean:       lat.Mean(),
	}
	if processed > 0 {
		pt.AbortPct = 100 * float64(aborts) / float64(processed)
	}
	if prepN > 0 {
		pt.MeanPrepare = prepSum / time.Duration(prepN)
	}
	if reexecN > 0 {
		pt.MeanReexec = reexecSum / time.Duration(reexecN)
	}
	pt.Pass = pt.P99 <= opts.P99SLA && committed > 0
	return pt, nil
}
