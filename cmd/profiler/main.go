// Command profiler runs the offline symbolic-execution analysis over the
// TPC-C and RUBiS update transactions and prints the paper's Table I.
//
// Usage:
//
//	profiler [-warehouses N] [-items N] [-format text|csv] [-tree tx]
//
// -tree additionally dumps the named transaction's profile tree source for
// inspection.
package main

import (
	"flag"
	"fmt"
	"os"

	"prognosticator/internal/harness"
	"prognosticator/internal/lang"
	"prognosticator/internal/symexec"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// analyzeFile parses a transaction source file and prints each
// transaction's profile summary.
func analyzeFile(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	progs, err := lang.ParseAll(string(src))
	if err != nil {
		return err
	}
	for _, p := range progs {
		prof, err := symexec.Analyze(p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fmt.Printf("%-24s class=%-3v PSCs=%-5d states=%-6d indirect=%-3d pivot-free-traversal=%v\n",
			p.Name, prof.Class(), prof.NumLeaves(), prof.Stats.StatesExplored,
			prof.Stats.IndirectKeys, prof.PivotFreeTraversal())
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "profiler:", err)
		os.Exit(1)
	}
}

func run() error {
	warehouses := flag.Int("warehouses", 10, "TPC-C warehouse count")
	items := flag.Int("items", 1000, "TPC-C item catalog size")
	format := flag.String("format", "text", "output format: text or csv")
	tree := flag.String("tree", "", "also dump the profile source of this transaction")
	file := flag.String("file", "", "analyze transactions from this source file instead of the built-in benchmarks")
	flag.Parse()

	if *file != "" {
		return analyzeFile(*file)
	}

	tcfg := tpcc.DefaultConfig(*warehouses)
	tcfg.Items = *items
	rcfg := rubis.DefaultConfig()

	rows, err := harness.TableI(tcfg, rcfg)
	if err != nil {
		return err
	}
	switch *format {
	case "csv":
		fmt.Print(harness.TableICSV(rows))
	default:
		fmt.Print(harness.RenderTableI(rows))
	}

	if *tree != "" {
		progs := map[string]*lang.Program{}
		for _, p := range tpcc.Programs(tcfg) {
			progs[p.Name] = p
		}
		for _, p := range rubis.Programs(rcfg) {
			progs[p.Name] = p
		}
		prog, ok := progs[*tree]
		if !ok {
			return fmt.Errorf("unknown transaction %q", *tree)
		}
		prof, err := symexec.Analyze(prog)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\nclass=%s leaves=%d pivot-free-traversal=%v\n",
			lang.Format(prog), prof.Class(), prof.NumLeaves(), prof.PivotFreeTraversal())
	}
	return nil
}
