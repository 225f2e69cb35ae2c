package plan

import (
	"repro/internal/nodestore"
	"repro/internal/xquery"
)

// This file holds the static expression analyses the compiler and the
// rewrite rules share: free variables, last() usage, boolean shape, and
// the syntactic patterns (attribute equality, pushable comparisons) the
// rules recognize. All of them operate on the AST the plan nodes point
// back to.

// splitConjuncts flattens a where clause into AND-connected conjuncts.
func splitConjuncts(e xquery.Expr) []xquery.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*xquery.Binary); ok && b.Op == xquery.OpAnd {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []xquery.Expr{e}
}

// exprIndependent reports whether e references no variables and no focus
// at all (so its value, and a hash index over it, can be computed once and
// reused).
func exprIndependent(e xquery.Expr) bool { return len(freeVars(e)) == 0 }

// freeVars returns the free variables of e, and "." when e reads the focus
// it is evaluated in: the context item, position() or last() outside a
// nested predicate (which has a focus of its own).
func freeVars(e xquery.Expr) map[string]bool {
	out := map[string]bool{}
	xquery.Walk(e, nil, func(e xquery.Expr, s *xquery.Scope) bool {
		switch v := e.(type) {
		case *xquery.VarRef:
			if !s.Bound(v.Name) {
				out[v.Name] = true
			}
		case *xquery.ContextItem:
			if !s.InPred() {
				out["."] = true
			}
		case *xquery.Call:
			if !s.InPred() && (v.Name == "position" || v.Name == "last") {
				out["."] = true
			}
		}
		return true
	})
	return out
}

// usesLastExpr conservatively reports whether evaluating e may call last()
// in the current focus.
func usesLastExpr(e xquery.Expr, funcs map[string]*xquery.FuncDecl) bool {
	isUser := func(name string) bool { _, ok := funcs[name]; return ok }
	return xquery.UsesFocusCall(e, isUser, "last")
}

// boolShaped reports whether e always evaluates to a single boolean, so a
// predicate over it can never be positional and the evaluator's boolean
// fast path applies.
func boolShaped(e xquery.Expr, funcs map[string]*xquery.FuncDecl) bool {
	switch v := e.(type) {
	case *xquery.Binary:
		switch v.Op {
		case xquery.OpOr, xquery.OpAnd, xquery.OpEq, xquery.OpNeq,
			xquery.OpLt, xquery.OpLe, xquery.OpGt, xquery.OpGe:
			return true
		}
	case *xquery.Quantified:
		return true
	case *xquery.Call:
		if _, user := funcs[v.Name]; user {
			return false
		}
		switch v.Name {
		case "not", "boolean", "empty", "contains", "starts-with":
			return true
		}
	}
	return false
}

// attrEqPattern recognizes the predicate shape [@name = "literal"] (either
// operand order): the attribute-index lookup pattern.
func attrEqPattern(pred xquery.Expr) (name, lit string, ok bool) {
	b, isBin := pred.(*xquery.Binary)
	if !isBin || b.Op != xquery.OpEq {
		return "", "", false
	}
	if a, isAttr := ctxAttrOf(b.Left); isAttr {
		if s, isLit := b.Right.(*xquery.StringLit); isLit {
			return a, s.Val, true
		}
	}
	if a, isAttr := ctxAttrOf(b.Right); isAttr {
		if s, isLit := b.Left.(*xquery.StringLit); isLit {
			return a, s.Val, true
		}
	}
	return "", "", false
}

// ctxAttrOf recognizes the single-step context attribute path @name.
func ctxAttrOf(e xquery.Expr) (string, bool) {
	p, isPath := e.(*xquery.Path)
	if !isPath || len(p.Steps) != 1 {
		return "", false
	}
	if _, isCtx := p.Input.(*xquery.ContextItem); !isCtx {
		return "", false
	}
	st := p.Steps[0]
	if st.Axis != xquery.AxisAttribute || len(st.Preds) != 0 {
		return "", false
	}
	return st.Name, true
}

// valueSourceOf recognizes the context paths a store can evaluate inside
// a scan: @a, text(), name/text() and name/@a (all steps predicate-free).
// attr == "" means the source is text children. The parser nests relative
// paths (name/text() is a Path over a Path), so the step chain flattens
// first.
func valueSourceOf(e xquery.Expr) (child, attr string, ok bool) {
	input, steps := flattenPath(e)
	if len(steps) == 0 || len(steps) > 2 {
		return "", "", false
	}
	if _, isCtx := input.(*xquery.ContextItem); !isCtx {
		return "", "", false
	}
	for _, st := range steps {
		if len(st.Preds) > 0 {
			return "", "", false
		}
	}
	last := steps[len(steps)-1]
	switch last.Axis {
	case xquery.AxisAttribute:
		attr = last.Name
	case xquery.AxisText:
	default:
		return "", "", false
	}
	if len(steps) == 2 {
		first := steps[0]
		if first.Axis != xquery.AxisChild || first.Name == "*" || first.Name == "" {
			return "", "", false
		}
		child = first.Name
	}
	return child, attr, true
}

// flattenPath unwraps nested relative paths into one step chain over the
// innermost input expression.
func flattenPath(e xquery.Expr) (xquery.Expr, []*xquery.Step) {
	p, isPath := e.(*xquery.Path)
	if !isPath {
		return e, nil
	}
	input, steps := flattenPath(p.Input)
	return input, append(steps, p.Steps...)
}

var cmpOfBinOp = map[xquery.BinOp]nodestore.CmpOp{
	xquery.OpEq: nodestore.CmpEq, xquery.OpNeq: nodestore.CmpNeq,
	xquery.OpLt: nodestore.CmpLt, xquery.OpLe: nodestore.CmpLe,
	xquery.OpGt: nodestore.CmpGt, xquery.OpGe: nodestore.CmpGe,
}

// flipCmp mirrors a comparison when the literal stands on the left
// (lit < @a  ⇔  @a > lit).
func flipCmp(op nodestore.CmpOp) nodestore.CmpOp {
	switch op {
	case nodestore.CmpLt:
		return nodestore.CmpGt
	case nodestore.CmpLe:
		return nodestore.CmpGe
	case nodestore.CmpGt:
		return nodestore.CmpLt
	case nodestore.CmpGe:
		return nodestore.CmpLe
	}
	return op
}

// filtersOf converts a predicate expression into pushed-down value
// filters when it is a conjunction of @attr/text() comparisons against
// literals — the shapes whose store-side evaluation is provably identical
// to the engine's existential general comparison over a singleton (or
// text-children) operand. ok is false for any other shape.
func filtersOf(pred xquery.Expr) ([]nodestore.ValueFilter, bool) {
	b, isBin := pred.(*xquery.Binary)
	if !isBin {
		return nil, false
	}
	if b.Op == xquery.OpAnd {
		l, ok := filtersOf(b.Left)
		if !ok {
			return nil, false
		}
		r, ok := filtersOf(b.Right)
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	}
	op, cmp := cmpOfBinOp[b.Op]
	if !cmp {
		return nil, false
	}
	build := func(valueSide, litSide xquery.Expr, flip bool) (nodestore.ValueFilter, bool) {
		f := nodestore.ValueFilter{Op: op}
		if flip {
			f.Op = flipCmp(op)
		}
		child, attr, srcOK := valueSourceOf(valueSide)
		if !srcOK {
			return f, false
		}
		f.Child, f.Attr = child, attr
		switch lit := litSide.(type) {
		case *xquery.StringLit:
			f.Value = lit.Val
		case *xquery.NumberLit:
			f.Num, f.Numeric = lit.Val, true
		default:
			return f, false
		}
		return f, true
	}
	if f, ok := build(b.Left, b.Right, false); ok {
		return []nodestore.ValueFilter{f}, true
	}
	if f, ok := build(b.Right, b.Left, true); ok {
		return []nodestore.ValueFilter{f}, true
	}
	return nil, false
}
