// Command prognolint runs the static-analysis passes (internal/lint) over
// transaction source files and reports positioned findings.
//
// Usage:
//
//	prognolint [flags] [file.txn...]
//
//	-json           emit findings as a JSON array instead of text
//	-sarif          emit findings as a SARIF 2.1.0 log instead of text
//	-explain [PASS] print what the named lint pass checks and why, then
//	                exit; with no pass name, list every pass with a one-line
//	                summary
//	-fail-on SEV    exit non-zero at/above this severity (error|warning|info;
//	                default warning)
//	-soundness N    additionally derive each transaction's SE profile and
//	                cross-validate it against the concrete interpreter on N
//	                random samples per store state (plus boundary samples)
//	-seed S         RNG seed for -soundness sampling (default 1)
//	-workload W,... additionally lint the named built-in workload catalogs
//	                (tpcc, rubis) against their real schemas
//
// Output is deterministic: within each input file (and each workload catalog)
// programs are reported in name order, and findings within a program are
// sorted by position. Two runs over the same inputs produce byte-identical
// output, so CI can diff against a checked-in baseline.
//
// The schema is inferred from the table accesses across all given files
// (first access fixes a table's key arity), so source files need no separate
// schema declaration; conflicting arities surface as schema findings.
// Workload catalogs are built from the Go workload packages and checked
// against their declared schemas instead.
//
// Exit status: 0 clean (below the -fail-on threshold), 1 findings at or
// above the threshold, 2 usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"prognosticator/internal/lang"
	"prognosticator/internal/lint"
	"prognosticator/internal/symexec"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// fileFinding is a finding tagged with its source file for output.
type fileFinding struct {
	File string `json:"file"`
	lint.Finding
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prognolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	explain := fs.String("explain", "", "print what the named lint pass checks, then exit")
	failOn := fs.String("fail-on", "warning", "exit non-zero at/above this severity: error, warning or info")
	soundness := fs.Int("soundness", 0, "cross-validate SE profiles on this many random samples (0 disables)")
	seed := fs.Int64("seed", 1, "RNG seed for -soundness sampling")
	workloads := fs.String("workload", "", "comma-separated built-in workload catalogs to lint (tpcc, rubis)")
	// A bare trailing -explain carries no pass name, which flag would reject
	// ("flag needs an argument"); treat it as a request to list every pass
	// with the first line of its documentation.
	if n := len(args); n > 0 && (args[n-1] == "-explain" || args[n-1] == "--explain") {
		for _, name := range lint.PassNames() {
			doc, _ := lint.Explain(name)
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(stdout, "%-18s %s\n", name, doc)
		}
		return 0
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *explain != "" {
		doc, ok := lint.Explain(*explain)
		if !ok {
			fmt.Fprintf(stderr, "prognolint: unknown pass %q; available passes:\n", *explain)
			for _, n := range lint.PassNames() {
				fmt.Fprintf(stderr, "\t%s\n", n)
			}
			return 2
		}
		fmt.Fprintf(stdout, "%s\n\n%s\n", *explain, doc)
		return 0
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "prognolint: -json and -sarif are mutually exclusive")
		return 2
	}
	if fs.NArg() == 0 && *workloads == "" {
		fmt.Fprintln(stderr, "prognolint: no input files or -workload")
		fs.Usage()
		return 2
	}
	threshold, err := lint.ParseSeverity(*failOn)
	if err != nil {
		fmt.Fprintf(stderr, "prognolint: bad -fail-on %q (want error, warning or info)\n", *failOn)
		return 2
	}

	// Parse every file first: the schema is inferred across all of them.
	type fileProgs struct {
		path  string
		progs []*lang.Program
	}
	var files []fileProgs
	var all []*lang.Program
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "prognolint: %v\n", err)
			return 2
		}
		progs, err := lang.ParseAll(string(src))
		if err != nil {
			fmt.Fprintf(stderr, "prognolint: %s: %v\n", path, err)
			return 2
		}
		files = append(files, fileProgs{path, progs})
		all = append(all, progs...)
	}

	var findings []fileFinding
	if len(files) > 0 {
		// Infer the schema from programs in file order (the first access fixes
		// a table's key arity), then report per file in program-name order.
		linter := lint.New(lint.InferSchema(all...))
		for _, f := range files {
			sortByName(f.progs)
			for _, p := range f.progs {
				for _, fd := range linter.Run(p) {
					findings = append(findings, fileFinding{File: f.path, Finding: fd})
				}
				if *soundness > 0 {
					findings = append(findings, checkSoundness(f.path, p, *soundness, *seed, stderr)...)
				}
			}
		}
	}

	if *workloads != "" {
		for _, name := range strings.Split(*workloads, ",") {
			name = strings.TrimSpace(name)
			schema, progs, err := workloadCatalog(name)
			if err != nil {
				fmt.Fprintf(stderr, "prognolint: %v\n", err)
				return 2
			}
			label := "workload:" + name
			linter := lint.New(schema)
			sortByName(progs)
			for _, p := range progs {
				for _, fd := range linter.Run(p) {
					findings = append(findings, fileFinding{File: label, Finding: fd})
				}
				if *soundness > 0 {
					findings = append(findings, checkSoundness(label, p, *soundness, *seed, stderr)...)
				}
			}
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []fileFinding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "prognolint: %v\n", err)
			return 2
		}
	case *sarifOut:
		if err := writeSARIF(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "prognolint: %v\n", err)
			return 2
		}
	default:
		for _, fd := range findings {
			fmt.Fprintf(stdout, "%s:%s\n", fd.File, fd.Finding.String())
		}
		if len(findings) == 0 {
			fmt.Fprintln(stdout, "prognolint: no findings")
		}
	}

	plain := make([]lint.Finding, len(findings))
	for i, fd := range findings {
		plain[i] = fd.Finding
	}
	if lint.MaxSeverity(plain) >= threshold {
		return 1
	}
	return 0
}

// sortByName orders programs by name for deterministic reporting.
func sortByName(progs []*lang.Program) {
	sort.Slice(progs, func(i, j int) bool { return progs[i].Name < progs[j].Name })
}

// workloadCatalog returns the named built-in workload's schema and programs,
// sized down where the defaults would make symbolic analysis needlessly
// expensive (newOrder's profile grows with OrderLinesMax; the contention
// structure the lint checks is unaffected by catalog size).
func workloadCatalog(name string) (*lang.Schema, []*lang.Program, error) {
	switch name {
	case "tpcc":
		cfg := tpcc.DefaultConfig(2)
		cfg.Items = 100
		cfg.CustomersPerDistrict = 20
		cfg.OrderLinesMax = 8
		return tpcc.Schema(), tpcc.Programs(cfg), nil
	case "rubis":
		return rubis.Schema(), rubis.Programs(rubis.DefaultConfig()), nil
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want tpcc or rubis)", name)
	}
}

// checkSoundness derives the profile with the symbolic execution the
// registry runs and cross-validates it against the concrete interpreter.
// Analysis failures are reported as findings, not fatal errors: a file that
// defeats the symbolic executor is precisely what the lint run should
// surface.
func checkSoundness(path string, p *lang.Program, samples int, seed int64, stderr io.Writer) []fileFinding {
	prof, err := symexec.Analyze(p)
	if err != nil {
		return []fileFinding{{File: path, Finding: lint.Finding{
			Prog: p.Name, Pass: "profile-soundness", Path: "profile",
			Severity: lint.SevError,
			Message:  fmt.Sprintf("symbolic execution failed: %v", err),
		}}}
	}
	rep, err := lint.CheckSoundness(p, prof, lint.SoundnessOptions{Samples: samples, Seed: seed})
	if err != nil {
		fmt.Fprintf(stderr, "prognolint: soundness %s: %v\n", p.Name, err)
		return nil
	}
	var out []fileFinding
	for _, fd := range rep.Findings() {
		out = append(out, fileFinding{File: path, Finding: fd})
	}
	return out
}
