package plan

import (
	"fmt"
	"sort"

	"repro/internal/nodestore"
	"repro/internal/xquery"
)

// Compile lowers the parsed query into the naive logical plan: every
// expression becomes a plan node, paths become Navigate chains with every
// predicate left to the engine, FLWORs become TupleSrc → For/Let → Select
// (one per where conjunct) → OrderBy → Project chains, and count() calls
// become Count nodes in drain mode. No optimization decisions are made
// here — Optimize's rule pipeline rewrites this tree according to the
// engine Options and the store's capabilities.
func Compile(q *xquery.Query, opts Options, store nodestore.Store) *Plan {
	c := &compiler{funcs: q.Functions}
	p := &Plan{Funcs: make(map[string]*FuncPlan, len(q.Functions))}
	for name := range q.Functions {
		p.FuncNames = append(p.FuncNames, name)
	}
	sort.Strings(p.FuncNames)
	for _, name := range p.FuncNames {
		fd := q.Functions[name]
		p.Funcs[name] = &FuncPlan{Name: name, Params: fd.Params, Body: c.expr(fd.Body)}
	}
	p.Root = &Node{Op: OpSerialize, Input: c.expr(q.Body)}
	return p
}

type compiler struct {
	funcs map[string]*xquery.FuncDecl
}

func (c *compiler) expr(e xquery.Expr) *Node {
	switch v := e.(type) {
	case *xquery.StringLit, *xquery.NumberLit:
		return &Node{Op: OpLiteral, Expr: e}
	case *xquery.VarRef:
		return &Node{Op: OpVar, Expr: e, Var: v.Name}
	case *xquery.ContextItem:
		return &Node{Op: OpContext, Expr: e}
	case *xquery.Root:
		return &Node{Op: OpRoot, Expr: e}
	case *xquery.Path:
		n := &Node{Op: OpNavigate, Expr: e, Input: c.expr(v.Input)}
		for _, st := range v.Steps {
			sp := &StepPlan{Axis: st.Axis, Name: st.Name}
			for _, pr := range st.Preds {
				pn := c.pred(pr)
				if st.Axis == xquery.AxisDescendant {
					pn.DescStep = st.Name
				}
				sp.Preds = append(sp.Preds, pn)
			}
			n.Steps = append(n.Steps, sp)
		}
		return n
	case *xquery.Filter:
		n := &Node{Op: OpSelect, Expr: e, Input: c.expr(v.Input)}
		for _, pr := range v.Preds {
			n.Preds = append(n.Preds, c.pred(pr))
		}
		return n
	case *xquery.FLWOR:
		return c.flwor(v)
	case *xquery.Quantified:
		n := &Node{Op: OpQuantified, Expr: e, BoolShaped: true}
		for _, s := range v.Seqs {
			n.Kids = append(n.Kids, c.expr(s))
		}
		n.Cond = c.expr(v.Satisfies)
		return n
	case *xquery.IfExpr:
		return &Node{Op: OpIf, Expr: e,
			Kids: []*Node{c.expr(v.Cond), c.expr(v.Then), c.expr(v.Else)}}
	case *xquery.Binary:
		return &Node{Op: OpBinary, Expr: e, BoolShaped: boolShaped(e, c.funcs),
			Kids: []*Node{c.expr(v.Left), c.expr(v.Right)}}
	case *xquery.Unary:
		return &Node{Op: OpUnary, Expr: e, Kids: []*Node{c.expr(v.Operand)}}
	case *xquery.Call:
		if _, user := c.funcs[v.Name]; !user && v.Name == "count" && len(v.Args) == 1 {
			return &Node{Op: OpCount, Expr: e, CountMode: CountDrain,
				Kids: []*Node{c.expr(v.Args[0])}}
		}
		n := &Node{Op: OpCall, Expr: e, BoolShaped: boolShaped(e, c.funcs)}
		for _, a := range v.Args {
			n.Kids = append(n.Kids, c.expr(a))
		}
		return n
	case *xquery.Sequence:
		n := &Node{Op: OpSequence, Expr: e}
		for _, it := range v.Items {
			n.Kids = append(n.Kids, c.expr(it))
		}
		return n
	case *xquery.ElementCtor:
		n := &Node{Op: OpCtor, Expr: e}
		for _, a := range v.Attrs {
			var parts []*Node
			for _, part := range a.Parts {
				parts = append(parts, c.expr(part))
			}
			n.CtorAttrs = append(n.CtorAttrs, parts)
		}
		for _, part := range v.Content {
			n.Content = append(n.Content, c.expr(part))
		}
		return n
	default:
		panic(fmt.Sprintf("plan: unhandled expression %T", e))
	}
}

// pred compiles a predicate expression, annotating it with the static
// analyses the filter operators consult per candidate.
func (c *compiler) pred(e xquery.Expr) *Node {
	n := c.expr(e)
	n.UsesLast = usesLastExpr(e, c.funcs)
	return n
}

// flwor compiles a FLWOR expression into its tuple-operator chain. The
// where clause splits into one Select per AND-connected conjunct, all
// placed above the clause chain — join rewrites later fuse eligible
// conjuncts into the clause that binds their variable.
func (c *compiler) flwor(f *xquery.FLWOR) *Node {
	chain := &Node{Op: OpTupleSrc}
	for _, cl := range f.Clauses {
		if cl.For != nil {
			chain = &Node{Op: OpFor, Input: chain, Var: cl.For.Var, Seq: c.expr(cl.For.Seq)}
		} else {
			chain = &Node{Op: OpLet, Input: chain, Var: cl.Let.Var, Seq: c.expr(cl.Let.Seq)}
		}
	}
	for _, conj := range splitConjuncts(f.Where) {
		chain = &Node{Op: OpWhere, Expr: conj, Input: chain, Cond: c.expr(conj)}
	}
	if len(f.Order) > 0 {
		ob := &Node{Op: OpOrderBy, Expr: f, Input: chain}
		for _, o := range f.Order {
			ob.Keys = append(ob.Keys, OrderKey{Key: c.expr(o.Key), Descending: o.Descending})
		}
		chain = ob
	}
	return &Node{Op: OpProject, Expr: f, Input: chain, Ret: c.expr(f.Return)}
}
