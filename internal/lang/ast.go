package lang

import (
	"fmt"
	"sync"

	"prognosticator/internal/value"
)

// Param declares a transaction input. Integer parameters carry a domain
// [Lo, Hi] taken from the benchmark specification (e.g. TPC-C bounds olCnt
// to [5,15]); the symbolic executor uses the domain to bound path
// exploration and the solver uses it to decide path-constraint
// satisfiability. List parameters carry an element spec and a maximum
// length; their effective length may be tied to another integer parameter
// via LenParam (e.g. the olIds list has length olCnt).
type Param struct {
	Name     string
	Kind     value.Kind
	Lo, Hi   int64  // int domain; ignored for other kinds
	Elem     *Param // list element spec (Name ignored)
	MaxLen   int    // list capacity
	LenParam string // optional int param giving the effective list length
}

// IntParam declares an integer input with the given inclusive domain.
func IntParam(name string, lo, hi int64) Param {
	return Param{Name: name, Kind: value.KindInt, Lo: lo, Hi: hi}
}

// StrParam declares a string input.
func StrParam(name string) Param {
	return Param{Name: name, Kind: value.KindString}
}

// ListParam declares a list input of at most maxLen elements, each described
// by elem. If lenParam is non-empty, the effective length of the list equals
// the value of that integer parameter.
func ListParam(name string, elem Param, maxLen int, lenParam string) Param {
	e := elem
	return Param{Name: name, Kind: value.KindList, Elem: &e, MaxLen: maxLen, LenParam: lenParam}
}

// Expr is a side-effect-free expression.
type Expr interface{ exprNode() }

// Const is a literal value.
type Const struct{ V value.Value }

// ParamRef reads a transaction input.
type ParamRef struct{ Name string }

// LocalRef reads a local variable.
type LocalRef struct{ Name string }

// Bin applies a binary operator.
type Bin struct {
	Op   Op
	L, R Expr
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// Field projects a record field.
type Field struct {
	E    Expr
	Name string
}

// Index selects a list element.
type Index struct {
	E Expr
	I Expr
}

// FieldInit is one field of a record literal. Order is preserved for
// deterministic printing, but has no semantic meaning.
type FieldInit struct {
	Name string
	E    Expr
}

// Rec builds a record value. RecE fills in shape, the field names sorted once
// so that every record the expression yields shares them; a Rec built as a
// bare literal has none and sorts on every evaluation.
type Rec struct {
	Fields []FieldInit
	shape  *value.Shape
}

func (r Rec) recordShape() *value.Shape {
	if r.shape != nil {
		return r.shape
	}
	names := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		names[i] = f.Name
	}
	return value.NewShape(names...)
}

func (Const) exprNode()    {}
func (ParamRef) exprNode() {}
func (LocalRef) exprNode() {}
func (Bin) exprNode()      {}
func (Not) exprNode()      {}
func (Field) exprNode()    {}
func (Index) exprNode()    {}
func (Rec) exprNode()      {}

// Pos is a source position. The zero value means "unknown" — programs built
// with the Go constructors (builder.go) carry no positions; programs parsed
// from source carry the line/column of each statement's first token.
type Pos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

// IsValid reports whether the position carries real source coordinates.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders "line:col", or "-" for an unknown position.
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Stmt is a statement.
type Stmt interface {
	stmtNode()
	// StmtPos returns the statement's source position (zero if unknown).
	StmtPos() Pos
}

// Assign sets local Dst to the value of E.
type Assign struct {
	Dst string
	E   Expr
	Pos Pos
}

// SetField sets one field of the record held in local Dst.
type SetField struct {
	Dst   string
	Field string
	E     Expr
	Pos   Pos
}

// Get reads the item identified by (Table, Key...) into local Dst. A missing
// item yields an empty record.
type Get struct {
	Dst   string
	Table string
	Key   []Expr
	Pos   Pos
}

// Put writes Val (a record) to the item identified by (Table, Key...).
type Put struct {
	Table string
	Key   []Expr
	Val   Expr
	Pos   Pos
}

// Del deletes the item identified by (Table, Key...).
type Del struct {
	Table string
	Key   []Expr
	Pos   Pos
}

// If branches on a boolean condition.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// For runs Body with Var bound to From, From+1, ..., To-1.
type For struct {
	Var      string
	From, To Expr
	Body     []Stmt
	Pos      Pos
}

// Emit records a named output of the transaction (read-only results).
type Emit struct {
	Name string
	E    Expr
	Pos  Pos
}

func (Assign) stmtNode()   {}
func (SetField) stmtNode() {}
func (Get) stmtNode()      {}
func (Put) stmtNode()      {}
func (Del) stmtNode()      {}
func (If) stmtNode()       {}
func (For) stmtNode()      {}
func (Emit) stmtNode()     {}

// StmtPos implements Stmt.
func (s Assign) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s SetField) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s Get) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s Put) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s Del) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s If) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s For) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s Emit) StmtPos() Pos { return s.Pos }

// Program is a complete stored procedure. It is lowered to slot code the
// first time it runs, and must not change after that.
type Program struct {
	Name   string
	Params []Param
	Body   []Stmt

	lowered struct {
		once sync.Once
		code *code
	}
}

// Param returns the declaration of the named parameter, or false.
func (p *Program) Param(name string) (Param, bool) {
	for _, pr := range p.Params {
		if pr.Name == name {
			return pr, true
		}
	}
	return Param{}, false
}

// IsReadOnly reports whether the program contains no Put or Del anywhere.
func (p *Program) IsReadOnly() bool { return !anyWrite(p.Body) }

func anyWrite(body []Stmt) bool {
	for _, s := range body {
		switch st := s.(type) {
		case Put, Del:
			return true
		case If:
			if anyWrite(st.Then) || anyWrite(st.Else) {
				return true
			}
		case For:
			if anyWrite(st.Body) {
				return true
			}
		}
	}
	return false
}
