package lang

import "prognosticator/internal/value"

// This file provides terse constructors used by the workload definitions
// (internal/workload/*). They exist purely to keep hand-written transaction
// code readable; they add no semantics.

// C is an integer constant expression.
func C(i int64) Expr { return Const{V: value.Int(i)} }

// Cs is a string constant expression.
func Cs(s string) Expr { return Const{V: value.Str(s)} }

// Cb is a boolean constant expression.
func Cb(b bool) Expr { return Const{V: value.Bool(b)} }

// P references a parameter.
func P(name string) Expr { return ParamRef{Name: name} }

// L references a local.
func L(name string) Expr { return LocalRef{Name: name} }

// Add returns l + r.
func Add(l, r Expr) Expr { return Bin{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Bin{Op: OpSub, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return Bin{Op: OpMul, L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return Bin{Op: OpDiv, L: l, R: r} }

// Mod returns l % r.
func Mod(l, r Expr) Expr { return Bin{Op: OpMod, L: l, R: r} }

// Eq returns l == r.
func Eq(l, r Expr) Expr { return Bin{Op: OpEq, L: l, R: r} }

// Ne returns l != r.
func Ne(l, r Expr) Expr { return Bin{Op: OpNe, L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return Bin{Op: OpLt, L: l, R: r} }

// Le returns l <= r.
func Le(l, r Expr) Expr { return Bin{Op: OpLe, L: l, R: r} }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return Bin{Op: OpGt, L: l, R: r} }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return Bin{Op: OpGe, L: l, R: r} }

// And returns l && r.
func And(l, r Expr) Expr { return Bin{Op: OpAnd, L: l, R: r} }

// Or returns l || r.
func Or(l, r Expr) Expr { return Bin{Op: OpOr, L: l, R: r} }

// Neg returns !e.
func Neg(e Expr) Expr { return Not{E: e} }

// Fld projects a record field.
func Fld(e Expr, name string) Expr { return Field{E: e, Name: name} }

// Idx selects a list element.
func Idx(e, i Expr) Expr { return Index{E: e, I: i} }

// F names one field of a record literal.
func F(name string, e Expr) FieldInit { return FieldInit{Name: name, E: e} }

// RecE builds a record literal.
func RecE(fields ...FieldInit) Expr {
	r := Rec{Fields: fields}
	r.shape = r.recordShape()
	return r
}

// Set assigns an expression to a local.
func Set(dst string, e Expr) Stmt { return Assign{Dst: dst, E: e} }

// SetF sets a field of a record local.
func SetF(dst, field string, e Expr) Stmt { return SetField{Dst: dst, Field: field, E: e} }

// GetS reads (table, key...) into dst.
func GetS(dst, table string, key ...Expr) Stmt { return Get{Dst: dst, Table: table, Key: key} }

// PutS writes val to (table, key...). key must be the full key tuple.
func PutS(table string, key []Expr, val Expr) Stmt { return Put{Table: table, Key: key, Val: val} }

// DelS deletes (table, key...).
func DelS(table string, key ...Expr) Stmt { return Del{Table: table, Key: key} }

// IfS branches with no else.
func IfS(cond Expr, then ...Stmt) Stmt { return If{Cond: cond, Then: then} }

// IfElse branches with both arms.
func IfElse(cond Expr, then, els []Stmt) Stmt { return If{Cond: cond, Then: then, Else: els} }

// ForS loops v from from (inclusive) to to (exclusive).
func ForS(v string, from, to Expr, body ...Stmt) Stmt {
	return For{Var: v, From: from, To: to, Body: body}
}

// EmitS records a named output.
func EmitS(name string, e Expr) Stmt { return Emit{Name: name, E: e} }

// Key builds a key-expression tuple.
func Key(parts ...Expr) []Expr { return parts }
