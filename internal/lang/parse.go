package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"prognosticator/internal/value"
)

// This file implements a parser for the stored-procedure language, so that
// transactions can be written as source text instead of Go builder calls:
//
//	transaction transfer(src int[0..999], dst int[0..999], amount int[1..1000]) {
//	    s = get ACCOUNTS[src]
//	    d = get ACCOUNTS[dst]
//	    if s.bal >= amount {
//	        s.bal = s.bal - amount
//	        d.bal = d.bal + amount
//	        put ACCOUNTS[src] = s
//	        put ACCOUNTS[dst] = d
//	        emit ok = true
//	    }
//	}
//
// Parameter types: `int[lo..hi]`, `string`, `bool`, and
// `list[elemType; maxLen]` or `list[elemType; maxLen; lenParam]`.
// Statements: assignment, field assignment (`x.f = e`), `get`/`put`/`del`,
// `if`/`else`, `for i = a..b { }` (half-open), `emit name = e`.
// Expressions use the usual precedence: `||` < `&&` < comparisons < `+ -`
// < `* / %` < unary `!` < postfix `.field` / `[index]`.

// Parse parses a single transaction definition.
func Parse(src string) (*Program, error) {
	progs, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(progs) != 1 {
		return nil, fmt.Errorf("lang: expected exactly one transaction, found %d", len(progs))
	}
	return progs[0], nil
}

// ParseAll parses a source file containing any number of transaction
// definitions. Line comments start with //.
func ParseAll(src string) ([]*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var progs []*Program
	for !p.atEOF() {
		prog, err := p.program()
		if err != nil {
			return nil, err
		}
		progs = append(progs, prog)
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("lang: no transactions in source")
	}
	return progs, nil
}

// MustParse parses or panics; for tests and static program tables.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// --- lexer ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct // single/double char punctuation, Text holds it
)

type token struct {
	kind tokKind
	text string
	num  int64
	line int
	col  int
}

func lex(src string) ([]token, error) {
	var toks []token
	line, col := 1, 1
	i := 0
	advance := func(n int) {
		for j := 0; j < n; j++ {
			if src[i+j] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += n
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				advance(1)
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			startLine, startCol := line, col
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				advance(1)
			}
			toks = append(toks, token{kind: tokIdent, text: src[start:i], line: startLine, col: startCol})
		case unicode.IsDigit(rune(c)):
			start := i
			startLine, startCol := line, col
			for i < len(src) && unicode.IsDigit(rune(src[i])) {
				advance(1)
			}
			n, err := strconv.ParseInt(src[start:i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("lang: %d:%d: bad integer %q", startLine, startCol, src[start:i])
			}
			toks = append(toks, token{kind: tokInt, num: n, text: src[start:i], line: startLine, col: startCol})
		case c == '"':
			startLine, startCol := line, col
			advance(1)
			var sb strings.Builder
			for i < len(src) && src[i] != '"' {
				if src[i] == '\\' && i+1 < len(src) {
					advance(1)
					switch src[i] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(src[i])
					}
					advance(1)
					continue
				}
				sb.WriteByte(src[i])
				advance(1)
			}
			if i >= len(src) {
				return nil, fmt.Errorf("lang: %d:%d: unterminated string", startLine, startCol)
			}
			advance(1) // closing quote
			toks = append(toks, token{kind: tokString, text: sb.String(), line: startLine, col: startCol})
		default:
			startLine, startCol := line, col
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "..", "==", "!=", "<=", ">=", "&&", "||":
				toks = append(toks, token{kind: tokPunct, text: two, line: startLine, col: startCol})
				advance(2)
				continue
			}
			switch c {
			case '(', ')', '[', ']', '{', '}', ',', ';', ':', '.', '=', '<', '>', '+', '-', '*', '/', '%', '!':
				toks = append(toks, token{kind: tokPunct, text: string(c), line: startLine, col: startCol})
				advance(1)
			default:
				return nil, fmt.Errorf("lang: %d:%d: unexpected character %q", startLine, startCol, string(c))
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("lang: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) accept(text string) bool {
	t := p.cur()
	if (t.kind == tokPunct || t.kind == tokIdent) && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %q", text, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) intLit() (int64, error) {
	neg := false
	if p.cur().kind == tokPunct && p.cur().text == "-" {
		neg = true
		p.pos++
	}
	t := p.cur()
	if t.kind != tokInt {
		return 0, p.errf("expected integer, found %q", t.text)
	}
	p.pos++
	if neg {
		return -t.num, nil
	}
	return t.num, nil
}

func (p *parser) program() (*Program, error) {
	if err := p.expect("transaction"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var params []Param
	for !p.accept(")") {
		if len(params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		prm, err := p.param()
		if err != nil {
			return nil, err
		}
		params = append(params, prm)
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	prog := &Program{Name: name, Params: params, Body: body}
	// The grammar cannot distinguish parameter references from locals, so
	// the parser emits LocalRef everywhere and this pass rewrites the
	// names that match declared parameters. Parameters are immutable:
	// assigning to one (or shadowing one with a loop variable) is an
	// error.
	paramSet := map[string]bool{}
	for _, prm := range params {
		paramSet[prm.Name] = true
	}
	if err := rewriteParams(prog.Body, paramSet, name); err != nil {
		return nil, err
	}
	return prog, nil
}

func rewriteParams(body []Stmt, params map[string]bool, progName string) error {
	for i, st := range body {
		switch s := st.(type) {
		case Assign:
			if params[s.Dst] {
				return fmt.Errorf("lang: %s: assignment to parameter %q", progName, s.Dst)
			}
			s.E = rewriteExpr(s.E, params)
			body[i] = s
		case SetField:
			if params[s.Dst] {
				return fmt.Errorf("lang: %s: field assignment to parameter %q", progName, s.Dst)
			}
			s.E = rewriteExpr(s.E, params)
			body[i] = s
		case Get:
			if params[s.Dst] {
				return fmt.Errorf("lang: %s: get into parameter %q", progName, s.Dst)
			}
			for j := range s.Key {
				s.Key[j] = rewriteExpr(s.Key[j], params)
			}
			body[i] = s
		case Put:
			for j := range s.Key {
				s.Key[j] = rewriteExpr(s.Key[j], params)
			}
			s.Val = rewriteExpr(s.Val, params)
			body[i] = s
		case Del:
			for j := range s.Key {
				s.Key[j] = rewriteExpr(s.Key[j], params)
			}
			body[i] = s
		case If:
			s.Cond = rewriteExpr(s.Cond, params)
			if err := rewriteParams(s.Then, params, progName); err != nil {
				return err
			}
			if err := rewriteParams(s.Else, params, progName); err != nil {
				return err
			}
			body[i] = s
		case For:
			if params[s.Var] {
				return fmt.Errorf("lang: %s: loop variable %q shadows a parameter", progName, s.Var)
			}
			s.From = rewriteExpr(s.From, params)
			s.To = rewriteExpr(s.To, params)
			if err := rewriteParams(s.Body, params, progName); err != nil {
				return err
			}
			body[i] = s
		case Emit:
			s.E = rewriteExpr(s.E, params)
			body[i] = s
		}
	}
	return nil
}

func rewriteExpr(e Expr, params map[string]bool) Expr {
	switch x := e.(type) {
	case LocalRef:
		if params[x.Name] {
			return ParamRef{Name: x.Name}
		}
		return x
	case Bin:
		x.L = rewriteExpr(x.L, params)
		x.R = rewriteExpr(x.R, params)
		return x
	case Not:
		x.E = rewriteExpr(x.E, params)
		return x
	case Field:
		x.E = rewriteExpr(x.E, params)
		return x
	case Index:
		x.E = rewriteExpr(x.E, params)
		x.I = rewriteExpr(x.I, params)
		return x
	case Rec:
		for i := range x.Fields {
			x.Fields[i].E = rewriteExpr(x.Fields[i].E, params)
		}
		return x
	default:
		return e
	}
}

func (p *parser) param() (Param, error) {
	name, err := p.ident()
	if err != nil {
		return Param{}, err
	}
	prm, err := p.paramType()
	if err != nil {
		return Param{}, err
	}
	prm.Name = name
	return prm, nil
}

func (p *parser) paramType() (Param, error) {
	kind, err := p.ident()
	if err != nil {
		return Param{}, err
	}
	switch kind {
	case "int":
		if err := p.expect("["); err != nil {
			return Param{}, err
		}
		lo, err := p.intLit()
		if err != nil {
			return Param{}, err
		}
		if err := p.expect(".."); err != nil {
			return Param{}, err
		}
		hi, err := p.intLit()
		if err != nil {
			return Param{}, err
		}
		if err := p.expect("]"); err != nil {
			return Param{}, err
		}
		return Param{Kind: value.KindInt, Lo: lo, Hi: hi}, nil
	case "string":
		return Param{Kind: value.KindString}, nil
	case "bool":
		return Param{Kind: value.KindBool}, nil
	case "list":
		if err := p.expect("["); err != nil {
			return Param{}, err
		}
		elem, err := p.paramType()
		if err != nil {
			return Param{}, err
		}
		if err := p.expect(";"); err != nil {
			return Param{}, err
		}
		maxLen, err := p.intLit()
		if err != nil {
			return Param{}, err
		}
		lenParam := ""
		if p.accept(";") {
			lenParam, err = p.ident()
			if err != nil {
				return Param{}, err
			}
		}
		if err := p.expect("]"); err != nil {
			return Param{}, err
		}
		e := elem
		return Param{Kind: value.KindList, Elem: &e, MaxLen: int(maxLen), LenParam: lenParam}, nil
	default:
		return Param{}, p.errf("unknown type %q", kind)
	}
}

func (p *parser) block() ([]Stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept("}") {
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func (p *parser) keyList() (string, []Expr, error) {
	table, err := p.ident()
	if err != nil {
		return "", nil, err
	}
	if err := p.expect("["); err != nil {
		return "", nil, err
	}
	var key []Expr
	for !p.accept("]") {
		if len(key) > 0 {
			if err := p.expect(","); err != nil {
				return "", nil, err
			}
		}
		e, err := p.expr()
		if err != nil {
			return "", nil, err
		}
		key = append(key, e)
	}
	return table, key, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	pos := Pos{Line: t.line, Col: t.col}
	if t.kind != tokIdent {
		return nil, p.errf("expected statement, found %q", t.text)
	}
	switch t.text {
	case "put":
		p.pos++
		table, key, err := p.keyList()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		return Put{Table: table, Key: key, Val: val, Pos: pos}, nil
	case "del":
		p.pos++
		table, key, err := p.keyList()
		if err != nil {
			return nil, err
		}
		return Del{Table: table, Key: key, Pos: pos}, nil
	case "if":
		p.pos++
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		thenB, err := p.block()
		if err != nil {
			return nil, err
		}
		var elseB []Stmt
		if p.cur().kind == tokIdent && p.cur().text == "else" {
			p.pos++
			elseB, err = p.block()
			if err != nil {
				return nil, err
			}
		}
		return If{Cond: cond, Then: thenB, Else: elseB, Pos: pos}, nil
	case "for":
		p.pos++
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		from, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(".."); err != nil {
			return nil, err
		}
		to, err := p.expr()
		if err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return For{Var: v, From: from, To: to, Body: body, Pos: pos}, nil
	case "emit":
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return Emit{Name: name, E: e, Pos: pos}, nil
	}
	// IDENT-led: assignment, field assignment, or get.
	name, _ := p.ident()
	if p.accept(".") {
		field, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return SetField{Dst: name, Field: field, E: e, Pos: pos}, nil
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	if p.cur().kind == tokIdent && p.cur().text == "get" {
		p.pos++
		table, key, err := p.keyList()
		if err != nil {
			return nil, err
		}
		return Get{Dst: name, Table: table, Key: key, Pos: pos}, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return Assign{Dst: name, E: e, Pos: pos}, nil
}

// --- expressions, precedence climbing ---

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]Op{
	"==": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind == tokPunct {
		if op, ok := cmpOps[t.text]; ok {
			p.pos++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return Bin{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = Bin{Op: OpAdd, L: l, R: r}
		case p.accept("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = Bin{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.accept("*"):
			op = OpMul
		case p.accept("/"):
			op = OpDiv
		case p.accept("%"):
			op = OpMod
		default:
			return l, nil
		}
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: op, L: l, R: r}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.accept("!") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	}
	if p.cur().kind == tokPunct && p.cur().text == "-" && p.peek().kind == tokInt {
		p.pos++
		t := p.cur()
		p.pos++
		return Const{V: value.Int(-t.num)}, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("."):
			f, err := p.ident()
			if err != nil {
				return nil, err
			}
			e = Field{E: e, Name: f}
		case p.accept("["):
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = Index{E: e, I: idx}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.pos++
		return Const{V: value.Int(t.num)}, nil
	case t.kind == tokString:
		p.pos++
		return Const{V: value.Str(t.text)}, nil
	case t.kind == tokIdent && t.text == "true":
		p.pos++
		return Const{V: value.Bool(true)}, nil
	case t.kind == tokIdent && t.text == "false":
		p.pos++
		return Const{V: value.Bool(false)}, nil
	case t.kind == tokIdent:
		p.pos++
		// The validator distinguishes params from locals; the parser emits
		// LocalRef and a post-pass rewrites names that match parameters.
		return LocalRef{Name: t.text}, nil
	case t.kind == tokPunct && t.text == "(":
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokPunct && t.text == "{":
		p.pos++
		var fields []FieldInit
		for !p.accept("}") {
			if len(fields) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			fields = append(fields, FieldInit{Name: name, E: e})
		}
		return RecE(fields...), nil
	default:
		return nil, p.errf("expected expression, found %q", t.text)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
