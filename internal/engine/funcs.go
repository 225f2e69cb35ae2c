package engine

import (
	"strings"

	"repro/internal/plan"
	"repro/internal/xquery"
)

// builtins lists the function library of the subset; static analysis
// rejects unknown names.
var builtins = map[string]bool{
	"count": true, "empty": true, "not": true, "contains": true,
	"string": true, "number": true, "sum": true, "zero-or-one": true,
	"exactly-one": true, "distinct-values": true, "last": true,
	"position": true, "document": true, "doc": true, "name": true,
	"starts-with": true, "string-length": true, "concat": true,
	"string-join": true, "boolean": true,
}

// iterCall evaluates a function call. Aggregates (sum, distinct-values,
// string-join) drain their argument stream without materializing it;
// existential tests (empty, boolean, not, zero-or-one, exactly-one) pull
// only as many items as their answer needs. User function bodies evaluate
// eagerly so the recursion guard in iter applies. count() does not appear
// here: the planner lowers it to its own Count operator.
func (ev *evaluator) iterCall(n *plan.Node, env *bindings) Iterator {
	c := n.Expr.(*xquery.Call)
	if fd, ok := ev.funcs[c.Name]; ok {
		var inner *bindings
		for i, param := range fd.Params {
			inner = ev.bindEval(inner, param, n.Kids[i], env)
		}
		// As in XQuery the body has no focus (the join memo relies on it);
		// it materializes before the caller's focus is restored.
		hasFocus := ev.hasFocus
		ev.hasFocus = false
		r, s, single := ev.bindingValue(fd.Body, inner)
		ev.hasFocus = hasFocus
		if single {
			return ev.oneRef(r)
		}
		return ev.newVarIter(s)
	}
	switch c.Name {
	case "count":
		// Only a count() with the wrong arity reaches the generic call
		// path (the planner lowers count/1 to its Count operator); report
		// it like any other arity error, and fall back to draining if a
		// well-formed call ever lands here.
		ev.argc(c, 1)
		return ev.one(NumItem(float64(drainCount(ev.iter(n.Kids[0], env)))))
	case "empty":
		ev.argc(c, 1)
		_, ok := ev.first(n.Kids[0], env)
		return ev.one(BoolItem(!ok))
	case "not":
		ev.argc(c, 1)
		return ev.one(BoolItem(!ev.evalBool(n.Kids[0], env)))
	case "boolean":
		ev.argc(c, 1)
		return ev.one(BoolItem(ev.evalBool(n.Kids[0], env)))
	case "contains":
		ev.argc(c, 2)
		hay := ev.strArg(n.Kids[0], env)
		needle := ev.strArg(n.Kids[1], env)
		if len(needle) == 1 {
			// Single-byte needles scan with IndexByte — the same fast path
			// the serializer's escape scan uses — instead of the generic
			// substring search setup.
			return ev.one(BoolItem(strings.IndexByte(hay, needle[0]) >= 0))
		}
		return ev.one(BoolItem(strings.Contains(hay, needle)))
	case "starts-with":
		ev.argc(c, 2)
		return ev.one(BoolItem(strings.HasPrefix(ev.strArg(n.Kids[0], env), ev.strArg(n.Kids[1], env))))
	case "string":
		ev.argc(c, 1)
		return ev.one(StrItem(ev.strArg(n.Kids[0], env)))
	case "string-length":
		ev.argc(c, 1)
		return ev.one(NumItem(float64(len(ev.strArg(n.Kids[0], env)))))
	case "concat":
		var b strings.Builder
		for _, a := range n.Kids {
			b.WriteString(ev.strArg(a, env))
		}
		return ev.one(StrItem(b.String()))
	case "string-join":
		ev.argc(c, 2)
		sep := ev.strArg(n.Kids[1], env)
		var b strings.Builder
		it := ev.iter(n.Kids[0], env)
		for i := 0; ; i++ {
			r, ok := it.next()
			if !ok {
				break
			}
			if i > 0 {
				b.WriteString(sep)
			}
			a := ev.atomOf(r)
			b.WriteString(a.str())
		}
		return ev.one(StrItem(b.String()))
	case "number":
		ev.argc(c, 1)
		r, ok := ev.first(n.Kids[0], env)
		if !ok {
			return ev.one(NumItem(nan()))
		}
		a := ev.atomOf(r)
		return ev.one(NumItem(a.num()))
	case "sum":
		ev.argc(c, 1)
		total := 0.0
		it := ev.iter(n.Kids[0], env)
		for {
			r, ok := it.next()
			if !ok {
				break
			}
			a := ev.atomOf(r)
			total += a.num()
		}
		return ev.one(NumItem(total))
	case "zero-or-one":
		ev.argc(c, 1)
		it := ev.iter(n.Kids[0], env)
		first, cnt := firstTwo(it)
		if cnt > 1 {
			errf("zero-or-one() applied to a sequence of %d items", cnt+drainCount(it))
		}
		if cnt == 0 {
			return emptyIter{}
		}
		return ev.oneRef(first)
	case "exactly-one":
		ev.argc(c, 1)
		it := ev.iter(n.Kids[0], env)
		first, cnt := firstTwo(it)
		if cnt == 0 {
			// The exhausted iterator must not be drained further:
			// iterators are single-use once next returns false.
			errf("exactly-one() applied to an empty sequence")
		}
		if cnt > 1 {
			errf("exactly-one() applied to a sequence of %d items", cnt+drainCount(it))
		}
		return ev.oneRef(first)
	case "distinct-values":
		ev.argc(c, 1)
		var out Seq
		seen := make(map[string]bool)
		it := ev.iter(n.Kids[0], env)
		for {
			r, ok := it.next()
			if !ok {
				break
			}
			av := ev.atomize(r.box())
			k := itemString(av)
			if !seen[k] {
				seen[k] = true
				out = append(out, av)
			}
		}
		return ev.newVarIter(out)
	case "last":
		ev.argc(c, 0)
		if !ev.hasFocus {
			errf("last() used outside a predicate")
		}
		return ev.one(NumItem(float64(ev.focus.size)))
	case "position":
		ev.argc(c, 0)
		if !ev.hasFocus {
			errf("position() used outside a predicate")
		}
		return ev.one(NumItem(float64(ev.focus.pos)))
	case "document", "doc":
		// The benchmark's single document: document("auction.xml") is the
		// loaded store's document node (paper §5).
		return ev.one(DocItem{})
	case "name":
		ev.argc(c, 1)
		r, ok := ev.first(n.Kids[0], env)
		if !ok {
			return ev.one(StrItem(""))
		}
		if id, isNode := r.node(); isNode {
			return ev.one(StrItem(ev.store.Tag(id)))
		}
		switch v := r.box().(type) {
		case AttrItem:
			return ev.one(StrItem(v.Name))
		case *Constructed:
			return ev.one(StrItem(v.Tag))
		}
		return ev.one(StrItem(""))
	default:
		errf("unknown function %s()", c.Name)
		return nil
	}
}

// iterCount executes a Count operator with the planner's chosen strategy,
// falling back to draining the full argument plan when the catalog answer
// is unavailable for the concrete context (a non-node item in the
// truncated path, or a store capability that disappeared).
func (ev *evaluator) iterCount(n *plan.Node, env *bindings) Iterator {
	switch n.CountMode {
	case plan.CountCatalogPath:
		if c, ok := ev.store.CountPath(n.Path); ok {
			return ev.one(NumItem(float64(c)))
		}
	case plan.CountCatalogDesc:
		if total, ok := ev.countDescendants(n, env); ok {
			return ev.one(NumItem(float64(total)))
		}
	case plan.CountMatches:
		// The variable's let bound its join's match count, unless this
		// execution runs tuple-at-a-time and bound the matches themselves.
		if b := env.find(n.Kids[0].Var); len(b.val) == 1 {
			if c, ok := b.val[0].(matchCount); ok {
				return ev.one(NumItem(float64(c)))
			}
		}
	}
	if arg := n.Kids[0]; arg.Op == plan.OpGather {
		// Parallel count recombines by partial sums: each partition
		// worker counts its morsel without materializing it. When the
		// scan does not partition, drain the gather's sub-pipeline
		// directly instead of re-dispatching the Gather node (which
		// would probe the store's partition split a second time) —
		// vector-at-a-time when the sub-pipeline is batchable.
		if total, ok := ev.gatherCount(arg, env); ok {
			return ev.one(NumItem(float64(total)))
		}
		if bi := ev.batchOf(arg.Input, env); bi != nil {
			return ev.one(NumItem(float64(drainBatchCount(bi))))
		}
		return ev.one(NumItem(float64(drainCount(ev.iter(arg.Input, env)))))
	}
	// A vectorized count sums batch lengths: no id is ever boxed into an
	// item on the way to the total.
	if bi := ev.batchOf(n.Kids[0], env); bi != nil {
		return ev.one(NumItem(float64(drainBatchCount(bi))))
	}
	return ev.one(NumItem(float64(drainCount(ev.iter(n.Kids[0], env)))))
}

// countDescendants sums CountDescendants over the truncated context path:
// the structural-summary optimization the paper credits System D for on
// Q6 and Q7. ok is false when a context item is not a stored node, or the
// store cannot answer; the caller then drains the full argument.
func (ev *evaluator) countDescendants(n *plan.Node, env *bindings) (int, bool) {
	ctx := ev.iter(n.CountCtx, env)
	total := 0
	for {
		r, ok := ctx.next()
		if !ok {
			return total, true
		}
		id, isNode := r.node()
		if !isNode {
			if _, isDoc := r.item.(DocItem); !isDoc {
				return 0, false
			}
			// The descendant axis from the document node includes the
			// root element itself when the tag matches (docCandidates);
			// CountDescendants excludes the origin, so add it back.
			if id = ev.store.Root(); ev.store.Tag(id) == n.CountTag {
				total++
			}
		}
		cnt, supported := ev.store.CountDescendants(id, n.CountTag)
		if !supported {
			return 0, false
		}
		total += cnt
	}
}

// drainCount exhausts in and returns the item count. A step chain sums its
// candidate buffers and a materialized value reports its length; anything
// else is pulled as refs, so no item is boxed on the way to the total.
func drainCount(in Iterator) int {
	switch v := in.(type) {
	case *stepIter:
		return v.count()
	case *varIter:
		n := v.remaining()
		v.release()
		return n
	}
	n := 0
	for {
		if _, ok := in.next(); !ok {
			return n
		}
		n++
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func (ev *evaluator) argc(c *xquery.Call, want int) {
	if len(c.Args) != want {
		errf("%s() expects %d arguments, got %d", c.Name, want, len(c.Args))
	}
}

// strArg evaluates an argument to its string value: the first item of the
// argument stream, atomized; the empty sequence is the empty string.
func (ev *evaluator) strArg(n *plan.Node, env *bindings) string {
	if lit, ok := n.Expr.(*xquery.StringLit); ok && n.Op == plan.OpLiteral {
		return lit.Val
	}
	r, ok := ev.first(n, env)
	if !ok {
		return ""
	}
	a := ev.atomOf(r)
	return a.str()
}
