// Package lint implements static analysis over the stored-procedure IR
// (internal/lang): a small dataflow framework (CFG construction, def/use,
// reaching definitions), a set of lint passes producing positioned findings,
// and a profile-soundness checker that cross-validates symbolic-execution
// profiles against the concrete interpreter.
//
// The paper's runtime trusts the offline analysis completely: an unsound
// profile silently breaks determinism, and a procedure the SE engine cannot
// handle fails at registration time with no actionable diagnostics. The lint
// passes catch both failure classes before a procedure reaches the
// sequencer. See cmd/prognolint for the command-line front end.
package lint

import (
	"encoding/json"
	"fmt"
	"sort"

	"prognosticator/internal/lang"
	"prognosticator/internal/taint"
)

// Severity grades a finding.
type Severity int

// Severities. SevError marks findings that break determinism or analysis
// (strict registration rejects them); SevWarning marks likely mistakes;
// SevInfo marks structural facts worth knowing (e.g. reliance on pivot
// reads) that are not defects.
const (
	SevInfo Severity = iota + 1
	SevWarning
	SevError
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	sev, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = sev
	return nil
}

// ParseSeverity maps a severity name to its value.
func ParseSeverity(name string) (Severity, error) {
	switch name {
	case "error":
		return SevError, nil
	case "warning":
		return SevWarning, nil
	case "info":
		return SevInfo, nil
	default:
		return 0, fmt.Errorf("lint: unknown severity %q", name)
	}
}

// Finding is one positioned diagnostic.
type Finding struct {
	// Prog is the transaction name.
	Prog string `json:"prog"`
	// Pass names the lint pass that produced the finding.
	Pass string `json:"pass"`
	// Pos is the source position of the offending statement; zero for
	// programs built with the Go constructors (no source) and for
	// program-level findings (parameters, profiles).
	Pos lang.Pos `json:"pos"`
	// Path is the structural path of the statement (e.g. "body[2].then[0]"),
	// or a symbolic location like "params" or "profile" for findings not
	// anchored to a statement. It is stable across formatting changes and is
	// the position of record for builder-constructed programs.
	Path     string   `json:"path"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
}

// String renders "prog:line:col: severity: [pass] message", falling back to
// the structural path when no source position is known.
func (f Finding) String() string {
	loc := f.Pos.String()
	if !f.Pos.IsValid() {
		loc = f.Path
	}
	return fmt.Sprintf("%s:%s: %s: [%s] %s", f.Prog, loc, f.Severity, f.Pass, f.Message)
}

// Pass is one lint analysis. Passes are stateless; Run returns the findings
// for a single program.
type Pass interface {
	Name() string
	Run(pc *ProgContext) []Finding
}

// ProgContext carries everything passes may need, with expensive artifacts
// (CFG, reaching definitions, taint) computed once and shared.
type ProgContext struct {
	Prog   *lang.Program
	Schema *lang.Schema // may be nil: schema-dependent checks are skipped

	cfg       *CFG
	reach     *ReachingDefs
	taint     *taint.Result
	abs       *AbsState
	zone      *ZoneState
	aliasZone *ZoneState
	keydet    *taint.KeyDet
}

// CFG returns the program's control-flow graph, building it on first use.
func (pc *ProgContext) CFG() *CFG {
	if pc.cfg == nil {
		pc.cfg = BuildCFG(pc.Prog)
	}
	return pc.cfg
}

// Reach returns the reaching-definitions solution, computing it on first use.
func (pc *ProgContext) Reach() *ReachingDefs {
	if pc.reach == nil {
		pc.reach = SolveReachingDefs(pc.CFG())
	}
	return pc.reach
}

// Taint returns the relevant-variable analysis, computing it on first use.
func (pc *ProgContext) Taint() *taint.Result {
	if pc.taint == nil {
		pc.taint = taint.Analyze(pc.Prog)
	}
	return pc.taint
}

// Abs returns the interval abstract interpretation, computing it on first
// use.
func (pc *ProgContext) Abs() *AbsState {
	if pc.abs == nil {
		pc.abs = SolveAbsInt(pc.CFG())
	}
	return pc.abs
}

// Zone returns the relational zone (difference-bound matrix) analysis with
// guard assumptions and interval tightening, computing it on first use. It
// is the state dead-branch and loop-bound reasoning consult.
func (pc *ProgContext) Zone() *ZoneState {
	if pc.zone == nil {
		pc.zone = SolveZoneOpts(pc.CFG(), ZoneOpts{AssumeGuards: true, Abs: pc.Abs()})
	}
	return pc.zone
}

// AliasZone returns the assignment-chain-only zone analysis (no guard
// assumptions, no interval evaluation), computing it on first use. Its
// equalities hold by copy propagation alone, which is what makes it a safe
// taint.EqualityOracle: wherever it proves a local equal to an input-derived
// value, the symbolic executor's key term is input-only too.
func (pc *ProgContext) AliasZone() *ZoneState {
	if pc.aliasZone == nil {
		pc.aliasZone = SolveZoneOpts(pc.CFG(), ZoneOpts{})
	}
	return pc.aliasZone
}

// KeyDet returns the key-determinism classification, computing it on first
// use. The alias zone serves as the equality oracle, upgrading key parts
// that provably equal an input-derived value.
func (pc *ProgContext) KeyDet() *taint.KeyDet {
	if pc.keydet == nil {
		pc.keydet = taint.KeyDeterminismOracle(pc.Prog, pc.AliasZone())
	}
	return pc.keydet
}

// AllPasses returns the default pass pipeline, in execution order.
func AllPasses() []Pass {
	return []Pass{
		paramDomainPass{},
		schemaPass{},
		useBeforeAssignPass{},
		loopBoundPass{},
		pivotKeyPass{},
		keyDeterminismPass{},
		deadBranchPass{},
	}
}

// passDocs explains each pass for `prognolint -explain` and for SARIF rule
// metadata. Keys include "profile-soundness", which is produced by the
// soundness checker rather than a Pass.
var passDocs = map[string]string{
	"param-domain": "Checks parameter declarations: integer domains must be non-empty and\n" +
		"small enough to enumerate, list parameters need element domains, and\n" +
		"every declared parameter must be used. The symbolic executor and the\n" +
		"solver both reason over these domains; a bad domain silently weakens\n" +
		"every downstream proof.",
	"schema": "Checks every GET/PUT/DEL against the table schema: unknown tables and\n" +
		"key-arity mismatches fail at runtime inside the engine, where the error\n" +
		"surfaces as an aborted batch rather than a positioned diagnostic.",
	"use-before-assign": "Reaching-definitions check that every local read is preceded by an\n" +
		"assignment on every path. The concrete interpreter fails at runtime on\n" +
		"an unassigned local; the symbolic executor rejects the procedure.",
	"loop-bound": "Bounds loop trip counts against the declared input domains, evaluating\n" +
		"bounds with the interval abstract interpreter and tightening them with\n" +
		"the relational zone domain (difference-bound constraints survive joins,\n" +
		"so a locally-computed limit clamped against a constant stays bounded).\n" +
		"Loops the symbolic executor cannot bound exhaust its unroll budget and\n" +
		"fail registration; empty loops are reported as dead code.",
	"pivot-key": "Reports GET results that influence the identity of later accesses: the\n" +
		"transaction is dependent (DT) and its preparation needs pivot reads.\n" +
		"When the key-determinism analysis proves the traversal pivot-free, the\n" +
		"finding is downgraded: the direct part of the key-set is predicted\n" +
		"client-side and only pivot-dependent accesses touch the store during\n" +
		"preparation.",
	"key-determinism": "Per-access proof of key determinism: each GET/PUT/DEL key part is\n" +
		"classified direct (derivable from transaction inputs alone) or\n" +
		"pivot-dependent (flows from a prior GET result), with the pivot-derived\n" +
		"variables as witness. The zone domain's assignment-chain equalities act\n" +
		"as an oracle: a key part provably equal to an input-derived value is\n" +
		"upgraded to direct, and branches that only write fields which never\n" +
		"flow back into keys are discharged as traversal pivots. Direct accesses\n" +
		"of a pivot-free-traversal DT are instantiated client-side without store\n" +
		"reads (the paper's §III-C optimization).",
	"dead-branch": "Proves branches dead over the declared input domains, by two\n" +
		"complementary means: substituting locals by their abstract\n" +
		"interval/constant values and discharging path constraints with the\n" +
		"solver, and asking the relational zone domain whether assuming the\n" +
		"condition yields an infeasible (negative-cycle) state — which decides\n" +
		"guards comparing two locals, e.g. `if x < y` after `y = x - 1`. Dead\n" +
		"branches inflate profiles with unreachable subtrees and usually\n" +
		"indicate a logic error.",
	"profile-soundness": "Differential check of the symbolic-execution profile against the\n" +
		"concrete interpreter on boundary and random inputs: a profile that\n" +
		"misses a key breaks determinism (error); one that over-predicts only\n" +
		"costs spurious locks (warning).",
	"zone-soundness": "Differential check of the relational zone abstract domain against\n" +
		"concrete executions: every sampled run is traced statement by\n" +
		"statement, and each closed difference-bound constraint v - w ≤ c at a\n" +
		"program point must hold for the concrete values live there (both the\n" +
		"guard-assuming zone and the assignment-chain-only alias zone are\n" +
		"validated). A violation means the domain over-claimed and every\n" +
		"zone-backed verdict is suspect (error).",
}

// Explain returns the documentation paragraph for a pass name.
func Explain(pass string) (string, bool) {
	doc, ok := passDocs[pass]
	return doc, ok
}

// PassNames returns every documented pass name, sorted.
func PassNames() []string {
	names := make([]string, 0, len(passDocs))
	for n := range passDocs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Linter runs a pass pipeline over programs.
type Linter struct {
	// Schema is the data model programs are checked against; nil skips
	// schema-dependent checks.
	Schema *lang.Schema
	// Passes is the pipeline; nil means AllPasses.
	Passes []Pass
}

// New returns a Linter with the default pass pipeline.
func New(schema *lang.Schema) *Linter { return &Linter{Schema: schema} }

// Run lints one program, returning findings in deterministic order
// (by position, then structural path, then pass, then message).
func (l *Linter) Run(p *lang.Program) []Finding {
	passes := l.Passes
	if passes == nil {
		passes = AllPasses()
	}
	pc := &ProgContext{Prog: p, Schema: l.Schema}
	var out []Finding
	for _, pass := range passes {
		out = append(out, pass.Run(pc)...)
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings deterministically.
func SortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}

// MaxSeverity returns the highest severity present, or zero for no findings.
func MaxSeverity(fs []Finding) Severity {
	var max Severity
	for _, f := range fs {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}

// InferSchema derives a schema from the table accesses of the given
// programs: each referenced table with the key arity of its first access.
// Conflicting arities surface later as key-arity findings against the
// inferred spec. It lets prognolint check source files that carry no schema
// declaration.
func InferSchema(progs ...*lang.Program) *lang.Schema {
	arity := map[string]int{}
	var order []string
	record := func(table string, key []lang.Expr) {
		if _, ok := arity[table]; !ok {
			arity[table] = len(key)
			order = append(order, table)
		}
	}
	var walk func(body []lang.Stmt)
	walk = func(body []lang.Stmt) {
		for _, st := range body {
			switch s := st.(type) {
			case lang.Get:
				record(s.Table, s.Key)
			case lang.Put:
				record(s.Table, s.Key)
			case lang.Del:
				record(s.Table, s.Key)
			case lang.If:
				walk(s.Then)
				walk(s.Else)
			case lang.For:
				walk(s.Body)
			}
		}
	}
	for _, p := range progs {
		walk(p.Body)
	}
	specs := make([]lang.TableSpec, 0, len(order))
	for _, t := range order {
		specs = append(specs, lang.TableSpec{Name: t, KeyArity: arity[t]})
	}
	return lang.NewSchema(specs...)
}
