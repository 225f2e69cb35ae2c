package xquery

import (
	"fmt"
	"strconv"
	"strings"
)

// Unparse renders a parsed query back to source text. Together with Parse
// it forms a normalization pair: Parse(Unparse(q)) is structurally
// identical to q, which the tests verify over the whole benchmark query
// set. Harnesses use it to display rewritten or diagnosed queries.
func Unparse(q *Query) string {
	var b strings.Builder
	// Function declarations in name order for determinism.
	names := make([]string, 0, len(q.Functions))
	for name := range q.Functions {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		fd := q.Functions[name]
		b.WriteString("declare function ")
		b.WriteString(fd.Name)
		b.WriteByte('(')
		for i, p := range fd.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('$')
			b.WriteString(p)
		}
		b.WriteString(") { ")
		unparseExpr(&b, fd.Body)
		b.WriteString(" };\n")
	}
	unparseExpr(&b, q.Body)
	return b.String()
}

// UnparseExpr renders a single expression.
func UnparseExpr(e Expr) string {
	var b strings.Builder
	unparseExpr(&b, e)
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func unparseExpr(b *strings.Builder, e Expr) {
	switch v := e.(type) {
	case *StringLit:
		// The lexer has no escapes: a literal holding a double quote was
		// written between single quotes, and must be again.
		q := quoteFor(v.Val)
		b.WriteByte(q)
		b.WriteString(v.Val)
		b.WriteByte(q)
	case *NumberLit:
		b.WriteString(strconv.FormatFloat(v.Val, 'f', -1, 64))
	case *VarRef:
		b.WriteByte('$')
		b.WriteString(v.Name)
	case *ContextItem:
		b.WriteByte('.')
	case *Root:
		b.WriteByte('/')
	case *Path:
		unparsePath(b, v)
	case *Filter:
		b.WriteByte('(')
		unparseExpr(b, v.Input)
		b.WriteByte(')')
		for _, p := range v.Preds {
			b.WriteByte('[')
			unparseExpr(b, p)
			b.WriteByte(']')
		}
	case *FLWOR:
		unparseFLWOR(b, v)
	case *Quantified:
		if v.Every {
			b.WriteString("every ")
		} else {
			b.WriteString("some ")
		}
		for i := range v.Vars {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('$')
			b.WriteString(v.Vars[i])
			b.WriteString(" in ")
			unparseExpr(b, v.Seqs[i])
		}
		b.WriteString(" satisfies ")
		unparseExpr(b, v.Satisfies)
	case *IfExpr:
		b.WriteString("if (")
		unparseExpr(b, v.Cond)
		b.WriteString(") then ")
		unparseExpr(b, v.Then)
		b.WriteString(" else ")
		unparseExpr(b, v.Else)
	case *Binary:
		b.WriteByte('(')
		unparseExpr(b, v.Left)
		b.WriteByte(' ')
		b.WriteString(v.Op.String())
		b.WriteByte(' ')
		unparseExpr(b, v.Right)
		b.WriteByte(')')
	case *Unary:
		b.WriteString("-(")
		unparseExpr(b, v.Operand)
		b.WriteByte(')')
	case *Call:
		b.WriteString(v.Name)
		b.WriteByte('(')
		for i, a := range v.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			unparseExpr(b, a)
		}
		b.WriteByte(')')
	case *Sequence:
		b.WriteByte('(')
		for i, it := range v.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			unparseExpr(b, it)
		}
		b.WriteByte(')')
	case *ElementCtor:
		unparseCtor(b, v)
	default:
		// Unreachable for well-formed ASTs; make failures visible.
		fmt.Fprintf(b, "(:unknown %T:)", e)
	}
}

// leadKeywords are the names the parser reads as the start of a
// declaration, FLWOR, quantified or conditional expression.
var leadKeywords = map[string]bool{"declare": true, "for": true, "let": true, "some": true, "every": true, "if": true}

func unparsePath(b *strings.Builder, p *Path) {
	// A named child or attribute step reads as relative to the context
	// item without a prefix, unless the name is a keyword an expression
	// starts with; any other first step needs the explicit ".".
	_, fromCtx := p.Input.(*ContextItem)
	first := p.Steps[0]
	bare := fromCtx && (first.Axis == AxisAttribute ||
		first.Axis == AxisChild && first.Name != "*" && !leadKeywords[first.Name])
	switch p.Input.(type) {
	case *Root:
		// The leading separator comes from the first step below.
	case *ContextItem:
		if !bare {
			b.WriteByte('.')
		}
	default:
		unparseExpr(b, p.Input)
	}
	for i, st := range p.Steps {
		sep := "/"
		if st.Axis == AxisDescendant {
			sep = "//"
		}
		if i == 0 && bare {
			sep = ""
		}
		b.WriteString(sep)
		switch st.Axis {
		case AxisAttribute:
			b.WriteByte('@')
			b.WriteString(st.Name)
		case AxisText:
			b.WriteString("text()")
		default:
			b.WriteString(st.Name)
		}
		for _, pred := range st.Preds {
			b.WriteByte('[')
			unparseExpr(b, pred)
			b.WriteByte(']')
		}
	}
}

func unparseFLWOR(b *strings.Builder, f *FLWOR) {
	for _, cl := range f.Clauses {
		if cl.For != nil {
			b.WriteString("for $")
			b.WriteString(cl.For.Var)
			b.WriteString(" in ")
			unparseExpr(b, cl.For.Seq)
			b.WriteByte(' ')
		} else {
			b.WriteString("let $")
			b.WriteString(cl.Let.Var)
			b.WriteString(" := ")
			unparseExpr(b, cl.Let.Seq)
			b.WriteByte(' ')
		}
	}
	if f.Where != nil {
		b.WriteString("where ")
		unparseExpr(b, f.Where)
		b.WriteByte(' ')
	}
	if len(f.Order) > 0 {
		b.WriteString("order by ")
		for i, o := range f.Order {
			if i > 0 {
				b.WriteString(", ")
			}
			unparseExpr(b, o.Key)
			if o.Descending {
				b.WriteString(" descending")
			} else {
				b.WriteString(" ascending")
			}
		}
		b.WriteByte(' ')
	}
	b.WriteString("return ")
	unparseExpr(b, f.Return)
}

// quoteFor picks the quote character that can delimit s: a double quote
// unless s holds one.
func quoteFor(s string) byte {
	if strings.IndexByte(s, '"') >= 0 {
		return '\''
	}
	return '"'
}

func unparseCtor(b *strings.Builder, c *ElementCtor) {
	b.WriteByte('<')
	b.WriteString(c.Tag)
	for _, a := range c.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		var lits strings.Builder
		for _, part := range a.Parts {
			if lit, ok := part.(*StringLit); ok {
				lits.WriteString(lit.Val)
			}
		}
		q := quoteFor(lits.String())
		b.WriteByte('=')
		b.WriteByte(q)
		for _, part := range a.Parts {
			if lit, ok := part.(*StringLit); ok {
				b.WriteString(lit.Val)
				continue
			}
			b.WriteByte('{')
			unparseExpr(b, part)
			b.WriteByte('}')
		}
		b.WriteByte(q)
	}
	if len(c.Content) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, part := range c.Content {
		switch v := part.(type) {
		case *StringLit:
			b.WriteString(v.Val)
		case *ElementCtor:
			unparseCtor(b, v)
		default:
			b.WriteByte('{')
			unparseExpr(b, part)
			b.WriteByte('}')
		}
	}
	b.WriteString("</")
	b.WriteString(c.Tag)
	b.WriteByte('>')
}
