// Package prognosticator is the public API of the Prognosticator
// deterministic database (Issa et al., "Exploiting Symbolic Execution to
// Accelerate Deterministic Databases", ICDCS 2020).
//
// The library is organized as:
//
//   - a stored-procedure language in which transactions are written
//     (re-exported from internal/lang): programs declare typed, bounded
//     parameters and access a table/key store through GET/PUT/DEL;
//   - an offline symbolic-execution analysis (internal/symexec) that
//     computes each transaction's profile — a tree mapping every possible
//     execution path to its read/write-set, with pivot (store-dependent)
//     keys identified;
//   - a deterministic multi-threaded execution engine (internal/engine)
//     that uses instantiated profiles to schedule an ordered batch through
//     a per-key lock table with maximum parallelism; plus the Calvin, NODO
//     and SEQ baselines of the paper's evaluation;
//   - a replication substrate (Raft consensus + batch sequencer + replica
//     apply loop) for running multi-replica deployments in-process.
//
// See examples/quickstart for the end-to-end flow.
package prognosticator

import (
	"prognosticator/internal/baselines"
	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/lint"
	"prognosticator/internal/profile"
	"prognosticator/internal/replica"
	"prognosticator/internal/store"
	"prognosticator/internal/symexec"
	"prognosticator/internal/value"
)

// Value system.
type (
	// Value is a dynamically typed database value.
	Value = value.Value
	// Key identifies one data item: table plus key tuple.
	Key = value.Key
	// Kind is the dynamic type of a Value.
	Kind = value.Kind
)

// Value constructors.
var (
	Int    = value.Int
	Str    = value.Str
	BoolV  = value.Bool
	ListV  = value.List
	RecV   = value.Record
	NewKey = value.NewKey
)

// Transaction language.
type (
	// Program is a stored procedure.
	Program = lang.Program
	// Param declares a transaction input with its domain.
	Param = lang.Param
	// Schema lists the tables a program may address.
	Schema = lang.Schema
	// TableSpec declares one table.
	TableSpec = lang.TableSpec
	// Stmt and Expr are program syntax nodes.
	Stmt = lang.Stmt
	Expr = lang.Expr
)

// Program construction helpers (see internal/lang for the full builder).
var (
	NewSchema = lang.NewSchema
	IntParam  = lang.IntParam
	StrParam  = lang.StrParam
	ListParam = lang.ListParam

	C, Cs, Cb = lang.C, lang.Cs, lang.Cb
	P, L      = lang.P, lang.L
	Add, Sub  = lang.Add, lang.Sub
	Mul, Div  = lang.Mul, lang.Div
	Mod       = lang.Mod
	Eq, Ne    = lang.Eq, lang.Ne
	Lt, Le    = lang.Lt, lang.Le
	Gt, Ge    = lang.Gt, lang.Ge
	And, Or   = lang.And, lang.Or
	Neg       = lang.Neg
	Fld, Idx  = lang.Fld, lang.Idx
	F, RecE   = lang.F, lang.RecE

	// Parse / ParseAll / MustParse read transactions from source text
	// (see internal/lang/parse.go for the grammar).
	Parse     = lang.Parse
	ParseAll  = lang.ParseAll
	MustParse = lang.MustParse

	Set, SetF    = lang.Set, lang.SetF
	GetS, PutS   = lang.GetS, lang.PutS
	DelS         = lang.DelS
	IfS, IfElse  = lang.IfS, lang.IfElse
	ForS, EmitS  = lang.ForS, lang.EmitS
	KeyExpr      = lang.Key
	FormatSource = lang.Format
)

// Symbolic execution and profiles.
type (
	// Profile is a transaction's offline analysis result.
	Profile = profile.Profile
	// KeySet is a profile instantiated with concrete inputs.
	KeySet = profile.KeySet
	// Class is the ROT/IT/DT taxonomy.
	Class = profile.Class
)

// Transaction classes.
const (
	ClassROT = profile.ClassROT
	ClassIT  = profile.ClassIT
	ClassDT  = profile.ClassDT
)

// Analysis entry points.
var (
	// Analyze runs the symbolic execution the registry runs, with taint
	// and pruning on.
	Analyze = symexec.Analyze
	// MarshalProfile / UnmarshalProfile serialize profiles.
	MarshalProfile   = profile.Marshal
	UnmarshalProfile = profile.Unmarshal
)

// Storage.
type (
	// Store is the multi-version key/value store.
	Store = store.Store
)

// NewStore returns an empty store at epoch 0.
var NewStore = store.New

// Execution.
type (
	// Engine is the Prognosticator deterministic executor.
	Engine = engine.Engine
	// EngineConfig selects the engine variant ({MQ,1Q} x {SF,MF} x {SE,R}).
	EngineConfig = engine.Config
	// Registry is the transaction catalog (programs + profiles).
	Registry = engine.Registry
	// Request is one ordered transaction invocation.
	Request = engine.Request
	// BatchResult reports a batch's outcomes.
	BatchResult = engine.BatchResult
	// TxOutcome reports one transaction's fate.
	TxOutcome = engine.TxOutcome
	// Executor is implemented by the engine and all baselines.
	Executor = engine.Executor
	// Pool is the set of workers an executor runs its batches on: real
	// goroutines, or virtual clocks under the evaluation's cost model.
	Pool = engine.Pool
)

// Engine construction.
var (
	NewRegistry    = engine.NewRegistry
	NewEngine      = engine.New
	NewThreadPool  = engine.NewThreadPool
	NewVirtualPool = engine.NewVirtualPool
)

// Static analysis (see cmd/prognolint for the command-line front end).
type (
	// Linter runs the static-analysis passes over programs.
	Linter = lint.Linter
	// LintFinding is one positioned diagnostic.
	LintFinding = lint.Finding
	// LintSeverity grades findings (info/warning/error).
	LintSeverity = lint.Severity
	// SoundnessReport is a profile cross-validation result.
	SoundnessReport = lint.SoundnessReport
)

// Lint severities.
const (
	LintInfo    = lint.SevInfo
	LintWarning = lint.SevWarning
	LintError   = lint.SevError
)

// Static-analysis entry points.
var (
	// NewLinter builds a linter with the default pass pipeline.
	NewLinter = lint.New
	// InferLintSchema derives a schema from programs' table accesses.
	InferLintSchema = lint.InferSchema
	// CheckProfileSoundness cross-validates a profile against the concrete
	// interpreter on sampled inputs.
	CheckProfileSoundness = lint.CheckSoundness
)

// Engine variant knobs.
const (
	PrepareSE      = engine.PrepareSE
	PrepareRecon   = engine.PrepareRecon
	QueueMulti     = engine.QueueMulti
	QueueSingle    = engine.QueueSingle
	FailSequential = engine.FailSequential
	FailReenqueue  = engine.FailReenqueue
)

// Baselines of the paper's evaluation.
var (
	// NewCalvin builds the Calvin baseline (client reconnaissance N batch
	// epochs ahead) on a Pool of its own.
	NewCalvin = baselines.NewCalvin
	// NewNODO builds the table-granularity baseline on a Pool of its own.
	NewNODO = baselines.NewNODO
	// NewSEQ builds the single-threaded baseline.
	NewSEQ = baselines.NewSEQ
)

// Replication.
type (
	// Cluster is an in-process replicated deployment.
	Cluster = replica.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = replica.ClusterConfig
	// Replica applies ordered batches deterministically.
	Replica = replica.Replica
)

// NewCluster assembles and starts an in-process cluster.
var NewCluster = replica.NewCluster
