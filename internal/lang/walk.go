package lang

import "strconv"

// Traversal of the IR, for every analysis that collects or marks. A
// statement's structural path names where it sits: "body[2]" is the third
// top-level statement, "body[2].then[0]" the first of that If's then-arm,
// "body[2].body[0]" the first of that For's body. The compiled code, the
// lint CFG, the trace hook and every finding use the same paths, and this
// file is the only place that spells them.

// Block is a statement list and the label its statements' paths extend: a
// program's body is labelled "body", a block nested in the statement at
// path P is labelled P+".then", P+".else" or P+".body".
type Block struct {
	Label string
	Stmts []Stmt
}

// Root returns the block of a program's top-level statements.
func (p *Program) Root() Block { return Block{Label: "body", Stmts: p.Body} }

// Path returns the structural path of the block's i-th statement.
func (b Block) Path(i int) string { return b.Label + "[" + strconv.Itoa(i) + "]" }

// Nested returns the blocks the statement at path holds: an If's then-arm
// and else-arm, in that order, or a For's body. Other statements hold none.
func Nested(st Stmt, path string) []Block {
	switch s := st.(type) {
	case If:
		return []Block{{path + ".then", s.Then}, {path + ".else", s.Else}}
	case For:
		return []Block{{path + ".body", s.Body}}
	}
	return nil
}

// Walk calls fn for every statement of b and of the blocks nested in it, in
// program order: a statement before the statements it holds, an If's
// then-arm before its else-arm. fn is handed each statement's path.
func Walk(b Block, fn func(path string, st Stmt)) {
	for i, st := range b.Stmts {
		path := b.Path(i)
		fn(path, st)
		for _, nb := range Nested(st, path) {
			Walk(nb, fn)
		}
	}
}

// Exprs returns the expressions a statement evaluates at its own node, in
// evaluation order: key parts before a Put's value, a For's lower bound
// before its upper. Statements nested in an If or For are not included.
// The slice may share the statement's own: callers must not modify it.
func Exprs(st Stmt) []Expr {
	switch s := st.(type) {
	case Assign:
		return []Expr{s.E}
	case SetField:
		return []Expr{s.E}
	case Get:
		return s.Key
	case Put:
		return append(s.Key[:len(s.Key):len(s.Key)], s.Val)
	case Del:
		return s.Key
	case If:
		return []Expr{s.Cond}
	case For:
		return []Expr{s.From, s.To}
	case Emit:
		return []Expr{s.E}
	}
	return nil
}

// Inspect visits e and its sub-expressions in pre-order, operands left to
// right. When fn returns false, the sub-expressions of that node are
// skipped.
func Inspect(e Expr, fn func(Expr) bool) {
	if !fn(e) {
		return
	}
	switch x := e.(type) {
	case Bin:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case Not:
		Inspect(x.E, fn)
	case Field:
		Inspect(x.E, fn)
	case Index:
		Inspect(x.E, fn)
		Inspect(x.I, fn)
	case Rec:
		for _, f := range x.Fields {
			Inspect(f.E, fn)
		}
	}
}
