package xquery

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// ParseError reports a parse failure with a byte offset.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xquery: parse error at %d: %s", e.Pos, e.Msg)
}

// MaxDepth bounds how deeply a query may nest expressions: parenthesized
// and enclosed expressions, predicates, arguments, clauses, element
// constructors and unary minus each open one level. The parser recurses
// once per level, and an unbounded depth lets one request pin a worker on
// stack growth alone; the benchmark queries nest well under a tenth of it.
const MaxDepth = 256

type parser struct {
	lx    *lexer
	tok   Token
	err   error
	depth int
}

// enter opens one nesting level, failing the parse past MaxDepth; every
// enter is paired with a leave.
func (p *parser) enter() bool {
	p.depth++
	if p.depth > MaxDepth {
		p.fail("query nests deeper than the limit of %d levels", MaxDepth)
		return false
	}
	return true
}

func (p *parser) leave() { p.depth-- }

// Parse parses a query module: zero or more function declarations followed
// by the body expression.
func Parse(src string) (*Query, error) {
	p := &parser{lx: newLexer(src)}
	p.advance()
	q := &Query{Functions: make(map[string]*FuncDecl)}
	for p.err == nil && p.tok.Kind == TokName && p.tok.Text == "declare" {
		fd := p.parseFuncDecl()
		if p.err != nil {
			return nil, p.err
		}
		if _, dup := q.Functions[fd.Name]; dup {
			return nil, &ParseError{Pos: p.tok.Pos, Msg: "duplicate function " + fd.Name}
		}
		q.Functions[fd.Name] = fd
	}
	q.Body = p.parseExpr()
	if p.err != nil {
		return nil, p.err
	}
	if p.tok.Kind != TokEOF {
		return nil, &ParseError{Pos: p.tok.Pos, Msg: "trailing input " + p.tok.Text}
	}
	return q, nil
}

func (p *parser) advance() {
	if p.err != nil {
		return
	}
	t, err := p.lx.next()
	if err != nil {
		p.err = err
		return
	}
	p.tok = t
}

func (p *parser) fail(format string, args ...interface{}) {
	if p.err == nil {
		p.err = &ParseError{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...)}
	}
}

func (p *parser) expect(k TokKind, what string) Token {
	t := p.tok
	if t.Kind != k {
		p.fail("expected %s, found %q", what, t.Text)
		return t
	}
	p.advance()
	return t
}

func (p *parser) keyword(word string) bool {
	return p.tok.Kind == TokName && p.tok.Text == word
}

func (p *parser) expectKeyword(word string) {
	if !p.keyword(word) {
		p.fail("expected %q, found %q", word, p.tok.Text)
		return
	}
	p.advance()
}

func (p *parser) parseFuncDecl() *FuncDecl {
	p.expectKeyword("declare")
	p.expectKeyword("function")
	name := p.expect(TokName, "function name").Text
	p.expect(TokLParen, "(")
	var params []string
	for p.err == nil && p.tok.Kind != TokRParen {
		params = append(params, p.expect(TokVar, "parameter").Text)
		if p.tok.Kind == TokComma {
			p.advance()
		}
	}
	p.expect(TokRParen, ")")
	p.expect(TokLBrace, "{")
	body := p.parseExpr()
	p.expect(TokRBrace, "}")
	p.expect(TokSemicolon, ";")
	return &FuncDecl{Name: name, Params: params, Body: body}
}

// parseExpr parses a full (single) expression, dispatching on the FLWOR,
// quantified and conditional keywords.
func (p *parser) parseExpr() Expr {
	defer p.leave()
	if !p.enter() {
		return &Sequence{}
	}
	switch {
	case p.keyword("for") || p.keyword("let"):
		return p.parseFLWOR()
	case p.keyword("some") || p.keyword("every"):
		return p.parseQuantified()
	case p.keyword("if"):
		return p.parseIf()
	default:
		return p.parseOr()
	}
}

func (p *parser) parseFLWOR() Expr {
	f := &FLWOR{}
	for p.err == nil {
		switch {
		case p.keyword("for"):
			p.advance()
			for p.err == nil {
				v := p.expect(TokVar, "variable").Text
				p.expectKeyword("in")
				seq := p.parseSingle()
				f.Clauses = append(f.Clauses, Clause{For: &ForClause{Var: v, Seq: seq}})
				if p.tok.Kind != TokComma {
					break
				}
				p.advance()
			}
		case p.keyword("let"):
			p.advance()
			for p.err == nil {
				v := p.expect(TokVar, "variable").Text
				p.expect(TokAssign, ":=")
				seq := p.parseSingle()
				f.Clauses = append(f.Clauses, Clause{Let: &LetClause{Var: v, Seq: seq}})
				if p.tok.Kind != TokComma {
					break
				}
				p.advance()
			}
		default:
			goto clausesDone
		}
	}
clausesDone:
	if p.keyword("where") {
		p.advance()
		f.Where = p.parseSingle()
	}
	if p.keyword("order") {
		p.advance()
		p.expectKeyword("by")
		for p.err == nil {
			spec := OrderSpec{Key: p.parseSingle()}
			if p.keyword("ascending") {
				p.advance()
			} else if p.keyword("descending") {
				spec.Descending = true
				p.advance()
			}
			f.Order = append(f.Order, spec)
			if p.tok.Kind != TokComma {
				break
			}
			p.advance()
		}
	}
	p.expectKeyword("return")
	f.Return = p.parseSingle()
	return f
}

func (p *parser) parseQuantified() Expr {
	q := &Quantified{Every: p.tok.Text == "every"}
	p.advance()
	for p.err == nil {
		q.Vars = append(q.Vars, p.expect(TokVar, "variable").Text)
		p.expectKeyword("in")
		q.Seqs = append(q.Seqs, p.parseSingle())
		if p.tok.Kind != TokComma {
			break
		}
		p.advance()
	}
	p.expectKeyword("satisfies")
	q.Satisfies = p.parseSingle()
	return q
}

func (p *parser) parseIf() Expr {
	p.expectKeyword("if")
	p.expect(TokLParen, "(")
	cond := p.parseExpr()
	p.expect(TokRParen, ")")
	p.expectKeyword("then")
	thenE := p.parseSingle()
	p.expectKeyword("else")
	elseE := p.parseSingle()
	return &IfExpr{Cond: cond, Then: thenE, Else: elseE}
}

// parseSingle parses one expression without the top-level comma operator.
func (p *parser) parseSingle() Expr {
	defer p.leave()
	if !p.enter() {
		return &Sequence{}
	}
	switch {
	case p.keyword("for") || p.keyword("let"):
		return p.parseFLWOR()
	case p.keyword("some") || p.keyword("every"):
		return p.parseQuantified()
	case p.keyword("if"):
		return p.parseIf()
	default:
		return p.parseOr()
	}
}

func (p *parser) parseOr() Expr {
	left := p.parseAnd()
	for p.err == nil && p.keyword("or") {
		p.advance()
		left = &Binary{Op: OpOr, Left: left, Right: p.parseAnd()}
	}
	return left
}

func (p *parser) parseAnd() Expr {
	left := p.parseComparison()
	for p.err == nil && p.keyword("and") {
		p.advance()
		left = &Binary{Op: OpAnd, Left: left, Right: p.parseComparison()}
	}
	return left
}

var cmpOps = map[TokKind]BinOp{
	TokEq: OpEq, TokNeq: OpNeq, TokLt: OpLt, TokLe: OpLe,
	TokGt: OpGt, TokGe: OpGe, TokBefore: OpBefore, TokAfter: OpAfter,
}

func (p *parser) parseComparison() Expr {
	left := p.parseAdditive()
	if op, ok := cmpOps[p.tok.Kind]; ok && p.err == nil {
		p.advance()
		return &Binary{Op: op, Left: left, Right: p.parseAdditive()}
	}
	return left
}

func (p *parser) parseAdditive() Expr {
	left := p.parseMultiplicative()
	for p.err == nil {
		var op BinOp
		switch p.tok.Kind {
		case TokPlus:
			op = OpAdd
		case TokMinus:
			op = OpSub
		default:
			return left
		}
		p.advance()
		left = &Binary{Op: op, Left: left, Right: p.parseMultiplicative()}
	}
	return left
}

func (p *parser) parseMultiplicative() Expr {
	left := p.parseUnary()
	for p.err == nil {
		var op BinOp
		switch {
		case p.tok.Kind == TokStar:
			op = OpMul
		case p.keyword("div"):
			op = OpDiv
		case p.keyword("mod"):
			op = OpMod
		default:
			return left
		}
		p.advance()
		left = &Binary{Op: op, Left: left, Right: p.parseUnary()}
	}
	return left
}

func (p *parser) parseUnary() Expr {
	if p.tok.Kind == TokMinus {
		defer p.leave()
		if !p.enter() {
			return &Sequence{}
		}
		p.advance()
		return &Unary{Operand: p.parseUnary()}
	}
	return p.parsePath()
}

// parsePath parses [("/"|"//")] step ( ("/"|"//") step )*.
func (p *parser) parsePath() Expr {
	var input Expr
	var steps []*Step
	switch p.tok.Kind {
	case TokSlash:
		input = &Root{}
		p.advance()
		if !p.startsStep() {
			return input // bare "/"
		}
		steps = append(steps, p.parseStep(AxisChild))
	case TokDblSlash:
		input = &Root{}
		p.advance()
		steps = append(steps, p.parseStep(AxisDescendant))
	case TokAt:
		// A leading attribute step applies to the context item, as in the
		// predicate [@id = "person0"].
		input = &ContextItem{}
		steps = append(steps, p.parseStep(AxisChild))
	default:
		prim := p.parsePrimary()
		if p.tok.Kind != TokSlash && p.tok.Kind != TokDblSlash {
			return prim
		}
		input = prim
	}
	for p.err == nil {
		switch p.tok.Kind {
		case TokSlash:
			p.advance()
			steps = append(steps, p.parseStep(AxisChild))
		case TokDblSlash:
			p.advance()
			steps = append(steps, p.parseStep(AxisDescendant))
		default:
			return &Path{Input: input, Steps: steps}
		}
	}
	return &Path{Input: input, Steps: steps}
}

func (p *parser) startsStep() bool {
	switch p.tok.Kind {
	case TokName, TokAt, TokStar:
		return true
	default:
		return false
	}
}

func (p *parser) parseStep(axis Axis) *Step {
	st := &Step{Axis: axis}
	switch p.tok.Kind {
	case TokAt:
		p.advance()
		st.Axis = AxisAttribute
		st.Name = p.expect(TokName, "attribute name").Text
	case TokStar:
		p.advance()
		st.Name = "*"
	case TokName:
		name := p.tok.Text
		p.advance()
		if name == "text" && p.tok.Kind == TokLParen {
			p.advance()
			p.expect(TokRParen, ")")
			st.Axis = AxisText
		} else {
			st.Name = name
		}
	default:
		p.fail("expected path step, found %q", p.tok.Text)
		return st
	}
	st.Preds = p.parsePredicates()
	return st
}

func (p *parser) parsePredicates() []Expr {
	var preds []Expr
	for p.err == nil && p.tok.Kind == TokLBracket {
		p.advance()
		preds = append(preds, p.parseExpr())
		p.expect(TokRBracket, "]")
	}
	return preds
}

func (p *parser) parsePrimary() Expr {
	switch p.tok.Kind {
	case TokString:
		v := p.tok.Text
		p.advance()
		return &StringLit{Val: v}
	case TokNumber:
		f, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			p.fail("bad number %q", p.tok.Text)
		}
		p.advance()
		return &NumberLit{Val: f}
	case TokVar:
		v := p.tok.Text
		p.advance()
		e := Expr(&VarRef{Name: v})
		if preds := p.parsePredicates(); preds != nil {
			e = &Filter{Input: e, Preds: preds}
		}
		return e
	case TokDot:
		p.advance()
		return &ContextItem{}
	case TokLParen:
		p.advance()
		if p.tok.Kind == TokRParen {
			p.advance()
			return &Sequence{}
		}
		first := p.parseExpr()
		items := []Expr{first}
		for p.err == nil && p.tok.Kind == TokComma {
			p.advance()
			items = append(items, p.parseExpr())
		}
		p.expect(TokRParen, ")")
		var e Expr
		if len(items) == 1 {
			e = first
		} else {
			e = &Sequence{Items: items}
		}
		if preds := p.parsePredicates(); preds != nil {
			e = &Filter{Input: e, Preds: preds}
		}
		return e
	case TokLt:
		return p.parseConstructor()
	case TokName:
		name := p.tok.Text
		p.advance()
		if p.tok.Kind == TokLParen {
			p.advance()
			var args []Expr
			for p.err == nil && p.tok.Kind != TokRParen {
				args = append(args, p.parseExpr())
				if p.tok.Kind == TokComma {
					p.advance()
				}
			}
			p.expect(TokRParen, ")")
			return &Call{Name: name, Args: args}
		}
		// A bare name at primary position is a relative child step.
		st := &Step{Axis: AxisChild, Name: name}
		st.Preds = p.parsePredicates()
		return &Path{Input: &ContextItem{}, Steps: []*Step{st}}
	default:
		p.fail("unexpected token %q", p.tok.Text)
		return &Sequence{}
	}
}

// parseConstructor parses a direct element constructor at character level,
// since constructor content follows XML rather than XQuery lexing.
// The current token is the opening '<'.
func (p *parser) parseConstructor() Expr {
	// Rewind the lexer to the '<' and scan raw.
	p.lx.pos = p.tok.Pos
	ctor := p.scanCtor()
	if p.err != nil {
		return &Sequence{}
	}
	p.advance() // refill token lookahead after raw scanning
	return ctor
}

func (p *parser) scanCtor() *ElementCtor {
	defer p.leave()
	if !p.enter() {
		return nil
	}
	lx := p.lx
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '<' {
		p.fail("expected constructor")
		return nil
	}
	lx.pos++
	tag := p.scanRawName()
	ctor := &ElementCtor{Tag: tag}
	// Attributes.
	for p.err == nil {
		p.skipRawSpace()
		if lx.pos >= len(lx.src) {
			p.fail("unterminated constructor <%s", tag)
			return ctor
		}
		c := lx.src[lx.pos]
		if c == '/' {
			if !bytes.HasPrefix(lx.src[lx.pos:], []byte("/>")) {
				p.fail("malformed empty constructor")
			}
			lx.pos += 2
			return ctor
		}
		if c == '>' {
			lx.pos++
			break
		}
		aname := p.scanRawName()
		p.skipRawSpace()
		if lx.pos >= len(lx.src) || lx.src[lx.pos] != '=' {
			p.fail("constructor attribute %q missing '='", aname)
			return ctor
		}
		lx.pos++
		p.skipRawSpace()
		parts := p.scanAttrValue()
		ctor.Attrs = append(ctor.Attrs, AttrCtor{Name: aname, Parts: parts})
	}
	// Content.
	var textStart = lx.pos
	flushText := func(end int) {
		if end > textStart {
			txt := string(lx.src[textStart:end])
			if strings.TrimSpace(txt) != "" {
				ctor.Content = append(ctor.Content, &StringLit{Val: txt})
			}
		}
	}
	for p.err == nil {
		if lx.pos >= len(lx.src) {
			p.fail("unterminated constructor <%s>", tag)
			return ctor
		}
		switch lx.src[lx.pos] {
		case '<':
			if bytes.HasPrefix(lx.src[lx.pos:], []byte("</")) {
				flushText(lx.pos)
				lx.pos += 2
				closing := p.scanRawName()
				if closing != tag {
					p.fail("constructor </%s> does not match <%s>", closing, tag)
				}
				p.skipRawSpace()
				if lx.pos >= len(lx.src) || lx.src[lx.pos] != '>' {
					p.fail("malformed closing tag </%s", closing)
					return ctor
				}
				lx.pos++
				return ctor
			}
			flushText(lx.pos)
			child := p.scanCtor()
			if p.err != nil {
				return ctor
			}
			ctor.Content = append(ctor.Content, child)
			textStart = lx.pos
		case '{':
			flushText(lx.pos)
			lx.pos++
			inner := p.parseEnclosed()
			if p.err != nil {
				return ctor
			}
			ctor.Content = append(ctor.Content, inner)
			textStart = lx.pos
		default:
			lx.pos++
		}
	}
	return ctor
}

// scanAttrValue scans a quoted constructor attribute value with optional
// {expr} embeddings.
func (p *parser) scanAttrValue() []Expr {
	lx := p.lx
	if lx.pos >= len(lx.src) || (lx.src[lx.pos] != '"' && lx.src[lx.pos] != '\'') {
		p.fail("constructor attribute missing quoted value")
		return nil
	}
	quote := lx.src[lx.pos]
	lx.pos++
	var parts []Expr
	start := lx.pos
	for p.err == nil {
		if lx.pos >= len(lx.src) {
			p.fail("unterminated attribute value")
			return parts
		}
		c := lx.src[lx.pos]
		if c == quote {
			if lx.pos > start {
				parts = append(parts, &StringLit{Val: string(lx.src[start:lx.pos])})
			}
			lx.pos++
			return parts
		}
		if c == '{' {
			if lx.pos > start {
				parts = append(parts, &StringLit{Val: string(lx.src[start:lx.pos])})
			}
			lx.pos++
			inner := p.parseEnclosed()
			if p.err != nil {
				return parts
			}
			parts = append(parts, inner)
			start = lx.pos
			continue
		}
		lx.pos++
	}
	return parts
}

// parseEnclosed parses the body of a constructor's enclosed expression
// "{ expr, expr, ... }" with the token-level parser; on return the lexer is
// positioned just past the closing brace.
func (p *parser) parseEnclosed() Expr {
	p.advance()
	items := []Expr{p.parseExpr()}
	for p.err == nil && p.tok.Kind == TokComma {
		p.advance()
		items = append(items, p.parseExpr())
	}
	if p.err != nil {
		return &Sequence{}
	}
	if p.tok.Kind != TokRBrace {
		p.fail("expected '}' in constructor, found %q", p.tok.Text)
		return &Sequence{}
	}
	if len(items) == 1 {
		return items[0]
	}
	return &Sequence{Items: items}
}

func (p *parser) scanRawName() string {
	lx := p.lx
	start := lx.pos
	for lx.pos < len(lx.src) && isNameChar(lx.src[lx.pos]) {
		lx.pos++
	}
	if lx.pos == start {
		p.fail("expected name in constructor")
	}
	return string(lx.src[start:lx.pos])
}

func (p *parser) skipRawSpace() {
	lx := p.lx
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		lx.pos++
	}
}
