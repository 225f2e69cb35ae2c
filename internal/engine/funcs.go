package engine

import (
	"strings"

	"repro/internal/plan"
	"repro/internal/xquery"
)

// builtinNames lists the function library of the subset; static analysis
// rejects unknown names.
func builtinNames() map[string]bool {
	return map[string]bool{
		"count": true, "empty": true, "not": true, "contains": true,
		"string": true, "number": true, "sum": true, "zero-or-one": true,
		"exactly-one": true, "distinct-values": true, "last": true,
		"position": true, "document": true, "doc": true, "name": true,
		"starts-with": true, "string-length": true, "concat": true,
		"string-join": true, "boolean": true,
	}
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
		inner := &bindings{}
		for i, param := range fd.Params {
			inner = inner.bind(param, ev.eval(n.Kids[i], env))
		}
		return ev.eval(fd.Body, inner).Iter()
	}
	switch c.Name {
	case "count":
		// Only a count() with the wrong arity reaches the generic call
		// path (the planner lowers count/1 to its Count operator); report
		// it like any other arity error, and fall back to draining if a
		// well-formed call ever lands here.
		ev.argc(c, 1)
		return one(NumItem(float64(drainCount(ev.iter(n.Kids[0], env)))))
	case "empty":
		ev.argc(c, 1)
		_, ok := ev.iter(n.Kids[0], env).Next()
		return one(BoolItem(!ok))
	case "not":
		ev.argc(c, 1)
		return one(BoolItem(!ev.evalBool(n.Kids[0], env)))
	case "boolean":
		ev.argc(c, 1)
		return one(BoolItem(ev.evalBool(n.Kids[0], env)))
	case "contains":
		ev.argc(c, 2)
		hay := ev.strArg(n.Kids[0], env)
		needle := ev.strArg(n.Kids[1], env)
		if len(needle) == 1 {
			// Single-byte needles scan with IndexByte — the same fast path
			// the serializer's escape scan uses — instead of the generic
			// substring search setup.
			return one(BoolItem(strings.IndexByte(hay, needle[0]) >= 0))
		}
		return one(BoolItem(strings.Contains(hay, needle)))
	case "starts-with":
		ev.argc(c, 2)
		return one(BoolItem(strings.HasPrefix(ev.strArg(n.Kids[0], env), ev.strArg(n.Kids[1], env))))
	case "string":
		ev.argc(c, 1)
		return one(StrItem(ev.strArg(n.Kids[0], env)))
	case "string-length":
		ev.argc(c, 1)
		return one(NumItem(float64(len(ev.strArg(n.Kids[0], env)))))
	case "concat":
		var b strings.Builder
		for _, a := range n.Kids {
			b.WriteString(ev.strArg(a, env))
		}
		return one(StrItem(b.String()))
	case "string-join":
		ev.argc(c, 2)
		sep := ev.strArg(n.Kids[1], env)
		var b strings.Builder
		it := ev.iter(n.Kids[0], env)
		for i := 0; ; i++ {
			v, ok := it.Next()
			if !ok {
				break
			}
			if i > 0 {
				b.WriteString(sep)
			}
			b.WriteString(itemString(ev.atomize(v)))
		}
		return one(StrItem(b.String()))
	case "number":
		ev.argc(c, 1)
		v, ok := ev.iter(n.Kids[0], env).Next()
		if !ok {
			return one(NumItem(nan()))
		}
		return one(NumItem(toNumber(ev.atomize(v))))
	case "sum":
		ev.argc(c, 1)
		total := 0.0
		it := ev.iter(n.Kids[0], env)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			total += toNumber(ev.atomize(v))
		}
		return one(NumItem(total))
	case "zero-or-one":
		ev.argc(c, 1)
		it := ev.iter(n.Kids[0], env)
		first, _, cnt := firstTwo(it)
		if cnt > 1 {
			errf("zero-or-one() applied to a sequence of %d items", cnt+drainCount(it))
		}
		if cnt == 0 {
			return emptyIter{}
		}
		return one(first)
	case "exactly-one":
		ev.argc(c, 1)
		it := ev.iter(n.Kids[0], env)
		first, _, cnt := firstTwo(it)
		if cnt == 0 {
			// The exhausted iterator must not be drained further:
			// iterators are single-use once Next returns false.
			errf("exactly-one() applied to an empty sequence")
		}
		if cnt > 1 {
			errf("exactly-one() applied to a sequence of %d items", cnt+drainCount(it))
		}
		return one(first)
	case "distinct-values":
		ev.argc(c, 1)
		var out Seq
		seen := make(map[string]bool)
		it := ev.iter(n.Kids[0], env)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			av := ev.atomize(v)
			k := itemString(av)
			if !seen[k] {
				seen[k] = true
				out = append(out, av)
			}
		}
		return out.Iter()
	case "last":
		ev.argc(c, 0)
		if !ev.hasFocus {
			errf("last() used outside a predicate")
		}
		return one(NumItem(float64(ev.focus.size)))
	case "position":
		ev.argc(c, 0)
		if !ev.hasFocus {
			errf("position() used outside a predicate")
		}
		return one(NumItem(float64(ev.focus.pos)))
	case "document", "doc":
		// The benchmark's single document: document("auction.xml") is the
		// loaded store's document node (paper §5).
		return one(DocItem{})
	case "name":
		ev.argc(c, 1)
		s, ok := ev.iter(n.Kids[0], env).Next()
		if !ok {
			return one(StrItem(""))
		}
		switch v := s.(type) {
		case NodeItem:
			return one(StrItem(ev.store.Tag(v.ID)))
		case AttrItem:
			return one(StrItem(v.Name))
		case *Constructed:
			return one(StrItem(v.Tag))
		}
		return one(StrItem(""))
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
			return one(NumItem(float64(c)))
		}
	case plan.CountCatalogDesc:
		if total, ok := ev.countDescendants(n, env); ok {
			return one(NumItem(float64(total)))
		}
	case plan.CountMatches:
		// The variable's let bound its join's match count, unless this
		// execution runs tuple-at-a-time and bound the matches themselves.
		if s := env.lookup(n.Kids[0].Var); len(s) == 1 {
			if c, ok := s[0].(matchCount); ok {
				return one(NumItem(float64(c)))
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
			return one(NumItem(float64(total)))
		}
		if bi := ev.batchOf(arg.Input, env); bi != nil {
			return one(NumItem(float64(drainBatchCount(bi))))
		}
		return one(NumItem(float64(drainCount(ev.iter(arg.Input, env)))))
	}
	// A vectorized count sums batch lengths: no id is ever boxed into an
	// item on the way to the total.
	if bi := ev.batchOf(n.Kids[0], env); bi != nil {
		return one(NumItem(float64(drainBatchCount(bi))))
	}
	return one(NumItem(float64(drainCount(ev.iter(n.Kids[0], env)))))
}

// countDescendants sums CountDescendants over the truncated context path:
// the structural-summary optimization the paper credits System D for on
// Q6 and Q7. ok is false when a context item is not a stored node, or the
// store cannot answer; the caller then drains the full argument.
func (ev *evaluator) countDescendants(n *plan.Node, env *bindings) (int, bool) {
	ctx := ev.iter(n.CountCtx, env)
	total := 0
	for {
		it, ok := ctx.Next()
		if !ok {
			return total, true
		}
		var id = ev.store.Root()
		switch v := it.(type) {
		case NodeItem:
			id = v.ID
		case DocItem:
			// The descendant axis from the document node includes the
			// root element itself when the tag matches (docCandidates);
			// CountDescendants excludes the origin, so add it back.
			if ev.store.Tag(id) == n.CountTag {
				total++
			}
		default:
			return 0, false
		}
		cnt, supported := ev.store.CountDescendants(id, n.CountTag)
		if !supported {
			return 0, false
		}
		total += cnt
	}
}

// drainCount exhausts in and returns the item count.
func drainCount(in Iterator) int {
	n := 0
	for {
		if _, ok := in.Next(); !ok {
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
	v, ok := ev.iter(n, env).Next()
	if !ok {
		return ""
	}
	return itemString(ev.atomize(v))
}
