// Command benchrunner regenerates the paper's evaluation figures:
//
//	fig3 — TPC-C max sustainable throughput + normalized abort rate at
//	       100/10/1 warehouses for MQ-MF, MQ-SF, Calvin-100, Calvin-200,
//	       NODO and SEQ (Fig. 3a/3b);
//	fig4 — the same line-up on the RUBiS-C update mix (Fig. 4a/4b);
//	fig5 — the eight Prognosticator variants {MQ,1Q}x{SF,MF}x{SE,R} with
//	       per-transaction prepare / re-execution time breakdown
//	       (Fig. 5a/5b).
//
// Usage:
//
//	benchrunner -experiment fig3|fig4|fig5|all [-scale quick|full]
//	            [-workers N] [-format text|csv]
//
// "quick" runs laptop-sized sweeps in a couple of minutes; "full" uses the
// paper's 10 ms batch interval and the full contention grid.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"prognosticator/internal/harness"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run() error {
	experiment := flag.String("experiment", "all", "fig3, fig4, fig5 or all")
	scale := flag.String("scale", "quick", "quick or full")
	workers := flag.Int("workers", 20, "virtual worker threads per replica (paper: 20)")
	format := flag.String("format", "text", "text or csv")
	flag.Parse()

	// The harness is allocation-heavy; relax GC pressure as any database
	// benchmark setup would.
	debug.SetGCPercent(400)

	var opts harness.Options
	var warehouses []int
	var tpccSize func(w int) tpcc.Config
	rcfg := rubis.DefaultConfig()
	switch *scale {
	case "full":
		opts = harness.Options{
			BatchInterval: 10 * time.Millisecond,
			P99SLA:        10 * time.Millisecond,
			Batches:       50,
			Warmup:        10,
			StartSize:     16,
			MaxSize:       1 << 14,
			Growth:        1.5,
			Workers:       *workers,
			Seed:          1,
		}
		warehouses = []int{100, 10, 1}
		tpccSize = tpcc.DefaultConfig
	default:
		opts = harness.Options{
			BatchInterval: 10 * time.Millisecond,
			P99SLA:        10 * time.Millisecond,
			Batches:       30,
			Warmup:        5,
			StartSize:     8,
			MaxSize:       1 << 12,
			Growth:        1.5,
			Workers:       *workers,
			Seed:          1,
		}
		warehouses = []int{100, 10, 1}
		tpccSize = func(w int) tpcc.Config {
			cfg := tpcc.DefaultConfig(w)
			cfg.Items = 200
			cfg.CustomersPerDistrict = 30
			return cfg
		}
		rcfg = rubis.Config{Users: 300, Items: 300}
	}

	tpccWorkloads := func() ([]harness.Workload, error) {
		var out []harness.Workload
		for _, w := range warehouses {
			wl, err := harness.TPCCWorkload(tpccSize(w))
			if err != nil {
				return nil, err
			}
			out = append(out, wl)
		}
		return out, nil
	}

	runFig3 := func() error {
		wls, err := tpccWorkloads()
		if err != nil {
			return err
		}
		rows, err := harness.RunComparison(harness.ComparisonSystems(), wls, opts)
		if err != nil {
			return err
		}
		emitComparison("Fig. 3: TPC-C throughput and normalized abort rate", rows, *format)
		return nil
	}
	runFig4 := func() error {
		wl, err := harness.RUBiSWorkload(rcfg)
		if err != nil {
			return err
		}
		rows, err := harness.RunComparison(harness.ComparisonSystems(), []harness.Workload{wl}, opts)
		if err != nil {
			return err
		}
		emitComparison("Fig. 4: RUBiS-C throughput and normalized abort rate", rows, *format)
		return nil
	}
	runFig5 := func() error {
		wls, err := tpccWorkloads()
		if err != nil {
			return err
		}
		rows, err := harness.RunVariants(wls, opts)
		if err != nil {
			return err
		}
		if *format == "csv" {
			fmt.Print(harness.VariantsCSV(rows))
		} else {
			fmt.Print(harness.RenderVariants(rows))
		}
		return nil
	}

	switch *experiment {
	case "fig3":
		return runFig3()
	case "fig4":
		return runFig4()
	case "fig5":
		return runFig5()
	case "all":
		if err := runFig3(); err != nil {
			return err
		}
		if err := runFig4(); err != nil {
			return err
		}
		return runFig5()
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

func emitComparison(title string, rows []harness.ComparisonRow, format string) {
	if format == "csv" {
		fmt.Print(harness.ComparisonCSV(rows))
		return
	}
	fmt.Print(harness.RenderComparison(title, rows))
	fmt.Println()
}
