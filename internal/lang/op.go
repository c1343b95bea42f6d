// Package lang defines the stored-procedure intermediate representation (IR)
// in which transactions are written. The paper's transactions are Java
// stored procedures analysed by JPF; this repository substitutes a small IR
// with exactly the constructs those procedures use — assignment, integer and
// boolean expressions, record field access, bounded loops, branches, and a
// GET/PUT key/value interface — so that both a concrete interpreter
// (internal/lang) and a symbolic executor (internal/symexec) can run them.
//
// The concrete interpreter runs a Program lowered once, the first time it
// runs, to closures over one slot array per execution (compile.go): each
// parameter and local has a slot, each statement its precomputed structural
// path, and a record the execution built and still alone holds is updated in
// place rather than copied. Run, Frame.Run and RunTrace all run that code;
// the tree-walking evaluator it replaced lives on in the tests, as the
// oracle the compiled form is fuzzed against.
package lang

import "fmt"

// Op enumerates binary operators.
type Op int

// Binary operators. Arithmetic operators apply to ints; comparison operators
// to ints and strings; logical operators to bools.
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// String returns the operator's source form.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "&&"
	case OpOr:
		return "||"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// IsComparison reports whether o yields a boolean from two scalars.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// IsArithmetic reports whether o is an integer arithmetic operator.
func (o Op) IsArithmetic() bool { return o >= OpAdd && o <= OpMod }

// IsLogical reports whether o combines two booleans.
func (o Op) IsLogical() bool { return o == OpAnd || o == OpOr }
