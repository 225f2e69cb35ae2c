package xquery

import "slices"

// Scope is what Walk knows about the node it is visiting: the variables
// in scope there and whether the node sits inside a predicate.
type Scope struct {
	vars  []string
	preds int
}

// Bound reports whether the variable name is in scope: passed to Walk, or
// bound by an enclosing for/let/some/every clause. A clause's variable is
// in scope in the later clauses and the body, not in its own sequence.
func (s *Scope) Bound(name string) bool {
	for i := len(s.vars) - 1; i >= 0; i-- {
		if s.vars[i] == name {
			return true
		}
	}
	return false
}

// InPred reports whether the node is inside a step or filter predicate
// (the predicate's root included), which evaluates in a focus of its own.
func (s *Scope) InPred() bool { return s.preds > 0 }

// Walk visits e and its subexpressions in pre-order: a path before its
// input and its steps' predicates, a FLWOR before its clauses, where,
// order keys and return. bound names the variables already in scope at e.
// visit returns false to skip the node's subexpressions. Every static
// analysis of the AST is a visitor over Walk, so a new node kind is taught
// to Walk, the printer and the lowering only.
func Walk(e Expr, bound []string, visit func(Expr, *Scope) bool) {
	s := &Scope{vars: slices.Clip(bound)}
	s.walk(e, visit)
}

func (s *Scope) walk(e Expr, visit func(Expr, *Scope) bool) {
	if e == nil || !visit(e, s) {
		return
	}
	switch v := e.(type) {
	case *Path:
		s.walk(v.Input, visit)
		s.preds++
		for _, st := range v.Steps {
			s.walkAll(st.Preds, visit)
		}
		s.preds--
	case *Filter:
		s.walk(v.Input, visit)
		s.preds++
		s.walkAll(v.Preds, visit)
		s.preds--
	case *FLWOR:
		outer := len(s.vars)
		for _, cl := range v.Clauses {
			if cl.For != nil {
				s.walk(cl.For.Seq, visit)
				s.vars = append(s.vars, cl.For.Var)
			} else {
				s.walk(cl.Let.Seq, visit)
				s.vars = append(s.vars, cl.Let.Var)
			}
		}
		s.walk(v.Where, visit)
		for _, o := range v.Order {
			s.walk(o.Key, visit)
		}
		s.walk(v.Return, visit)
		s.vars = s.vars[:outer]
	case *Quantified:
		outer := len(s.vars)
		for i, name := range v.Vars {
			s.walk(v.Seqs[i], visit)
			s.vars = append(s.vars, name)
		}
		s.walk(v.Satisfies, visit)
		s.vars = s.vars[:outer]
	case *IfExpr:
		s.walk(v.Cond, visit)
		s.walk(v.Then, visit)
		s.walk(v.Else, visit)
	case *Binary:
		s.walk(v.Left, visit)
		s.walk(v.Right, visit)
	case *Unary:
		s.walk(v.Operand, visit)
	case *Call:
		s.walkAll(v.Args, visit)
	case *Sequence:
		s.walkAll(v.Items, visit)
	case *ElementCtor:
		for _, a := range v.Attrs {
			s.walkAll(a.Parts, visit)
		}
		s.walkAll(v.Content, visit)
	}
}

func (s *Scope) walkAll(es []Expr, visit func(Expr, *Scope) bool) {
	for _, e := range es {
		s.walk(e, visit)
	}
}
