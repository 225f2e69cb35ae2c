package plan

import (
	"repro/internal/nodestore"
	"repro/internal/xquery"
)

// Optimize runs the rewrite pipeline over the plan in place. Rule order
// encodes the engine's historical peephole priorities: count shortcuts
// win over path-extent fusion (a catalog count never touches data),
// path-extent fusion claims leading steps before per-step strategies,
// inlining fuses before attribute indexes can look at a step, attribute
// indexes beat generic predicate pushdown on equality (a value-index probe
// reads less than a filtered scan), join selection runs over the tuple
// chains after the clause sequences have their final shapes, parallelize
// runs over the final physical scan shapes (filtered path extents,
// post-join chains) rather than intermediate ones, vectorize runs after
// every shape rewrite so its batch marks land on the scans parallelize just
// partitioned — each morsel then runs vector-at-a-time inside its Gather —
// and count-join follows it because it only fuses joins the batch operators
// will run.
func (p *Plan) Optimize(opts Options, store nodestore.Store) {
	ruleCountShortcut(p, opts, store)
	rulePathExtent(p, opts, store)
	ruleInlineText(p, opts)
	ruleAttrIndex(p, opts, store)
	rulePushdown(p, store)
	rulePushdownExtent(p, store)
	ruleJoins(p, opts)
	ruleOrderByElim(p)
	ruleParallelize(p, opts, store)
	ruleVectorize(p, opts, store)
	ruleCountJoin(p)
	ruleFulltext(p, opts, store)
}

// stepPrefix returns the longest leading run of predicate-free named child
// steps: the part a path catalog can answer directly.
func stepPrefix(steps []*StepPlan) []string {
	var prefix []string
	for _, sp := range steps {
		if sp.Axis != xquery.AxisChild || sp.Name == "*" || sp.Name == "" || len(sp.Preds) > 0 {
			break
		}
		prefix = append(prefix, sp.Name)
	}
	return prefix
}

// ruleCountShortcut rewrites count() over pure paths to catalog lookups
// (System D's structural summary): an all-child absolute path becomes a
// CountPath probe with no data access at all, and a path ending in one
// descendant step sums CountDescendants over the truncated context path.
// The full argument plan stays in place as the drain fallback.
func ruleCountShortcut(p *Plan, opts Options, store nodestore.Store) {
	if !opts.CountShortcut {
		return
	}
	p.walk(func(n *Node) {
		if n.Op != OpCount || n.CountMode != CountDrain {
			return
		}
		arg := n.Kids[0]
		if arg.Op != OpNavigate || len(arg.Steps) == 0 {
			return
		}
		for _, sp := range arg.Steps {
			if len(sp.Preds) > 0 || sp.Name == "*" || sp.Axis == xquery.AxisAttribute || sp.Axis == xquery.AxisText {
				return
			}
		}
		last := arg.Steps[len(arg.Steps)-1]
		if arg.Input.Op == OpRoot {
			allChild := true
			for _, sp := range arg.Steps {
				if sp.Axis != xquery.AxisChild {
					allChild = false
					break
				}
			}
			if allChild {
				path := make([]string, len(arg.Steps))
				for i, sp := range arg.Steps {
					path[i] = sp.Name
				}
				p.Probes++
				if _, ok := store.CountPath(path); ok {
					n.CountMode = CountCatalogPath
					n.Path = path
					p.fire("count-shortcut", n)
				}
				return
			}
		}
		if last.Axis != xquery.AxisDescendant {
			return
		}
		for _, sp := range arg.Steps[:len(arg.Steps)-1] {
			if sp.Axis != xquery.AxisChild {
				return
			}
		}
		p.Probes++
		if _, ok := store.CountDescendants(store.Root(), last.Name); !ok {
			return
		}
		n.CountMode = CountCatalogDesc
		n.CountTag = last.Name
		if len(arg.Steps) == 1 {
			n.CountCtx = arg.Input
		} else {
			n.CountCtx = &Node{Op: OpNavigate, Expr: arg.Expr,
				Input: arg.Input, Steps: arg.Steps[:len(arg.Steps)-1]}
		}
		p.fire("count-shortcut", n)
	})
}

// rulePathExtent fuses the leading predicate-free child steps of absolute
// paths onto a PathScan of the store's path catalog. Every probe counts
// toward the plan's compile-time metadata accesses whether or not the
// store can answer (paper Table 2: fragmenting mappings consult far more
// metadata).
func rulePathExtent(p *Plan, opts Options, store nodestore.Store) {
	if !opts.PathExtents {
		return
	}
	p.walk(func(n *Node) {
		if n.Op != OpNavigate || n.Input.Op != OpRoot {
			return
		}
		prefix := stepPrefix(n.Steps)
		if len(prefix) == 0 {
			return
		}
		p.Probes++
		if _, ok := store.PathCard(prefix); !ok {
			return
		}
		n.Input = &Node{Op: OpPathScan, Expr: n.Input.Expr, Path: prefix}
		n.Steps = n.Steps[len(prefix):]
		p.fire("path-extent", n.Input)
	})
}

// ruleInlineText fuses child/text() step pairs onto the store's inlined
// #PCDATA columns (System C): the navigation level the DTD-derived mapping
// of [23] eliminates. Fragments without the column fall back to navigation
// per context node at run time.
func ruleInlineText(p *Plan, opts Options) {
	if !opts.Inlining {
		return
	}
	p.walk(func(n *Node) {
		if n.Op != OpNavigate {
			return
		}
		for i := 0; i < len(n.Steps); i++ {
			sp := n.Steps[i]
			if i+1 < len(n.Steps) && sp.Strategy == StepNavigate &&
				sp.Axis == xquery.AxisChild && sp.Name != "*" && len(sp.Preds) == 0 &&
				n.Steps[i+1].Axis == xquery.AxisText && len(n.Steps[i+1].Preds) == 0 {
				sp.Strategy = StepInlineText
				n.Steps = append(n.Steps[:i+1], n.Steps[i+2:]...)
				p.fire("inline-text", n)
			}
		}
	})
}

// ruleAttrIndex answers child steps selected by a single [@attr =
// "literal"] predicate from the store's attribute value index: the "index
// lookup" execution of Q1 the paper contrasts with a table scan. The
// predicate stays on the step as the navigation fallback for contexts the
// index probe cannot validate.
func ruleAttrIndex(p *Plan, opts Options, store nodestore.Store) {
	if !opts.AttrIndexes {
		return
	}
	p.walk(func(n *Node) {
		if n.Op != OpNavigate {
			return
		}
		for _, sp := range n.Steps {
			if sp.Strategy != StepNavigate || sp.Axis != xquery.AxisChild ||
				sp.Name == "*" || len(sp.Preds) != 1 {
				continue
			}
			aname, lit, ok := attrEqPattern(sp.Preds[0].Expr)
			if !ok {
				continue
			}
			p.Probes++
			if _, supported := store.AttrLookup(aname, lit); !supported {
				continue
			}
			sp.Strategy = StepAttrIndex
			sp.IdxAttr, sp.IdxValue = aname, lit
			p.fire("attr-index", n)
		}
	})
}

// rulePushdown moves the longest prefix of pushable step predicates —
// conjunctions of @attr/text() comparisons against literals — into the
// store's filtered cursors, so the relational mappings evaluate them
// inside the table scan instead of surfacing every candidate into the
// engine. Only a prefix may move: later predicates see positions within
// the survivors of earlier ones, which the filtered scan preserves exactly.
func rulePushdown(p *Plan, store nodestore.Store) {
	p.walk(func(n *Node) {
		if n.Op != OpNavigate {
			return
		}
		for _, sp := range n.Steps {
			if sp.Strategy != StepNavigate || sp.Axis != xquery.AxisChild ||
				sp.Name == "*" || sp.Name == "" || len(sp.Preds) == 0 {
				continue
			}
			var filters []nodestore.ValueFilter
			pushed := 0
			for _, pr := range sp.Preds {
				fs, ok := filtersOf(pr.Expr)
				if !ok {
					break
				}
				filters = append(filters, fs...)
				pushed++
			}
			if pushed == 0 {
				continue
			}
			// A store may decline filtered cursors per profile (plain
			// main-memory stores evaluate predicates in the engine).
			// Probe it like every other catalog consultation.
			p.Probes++
			if _, supported := store.ChildrenByTagFilteredCursor(store.Root(), sp.Name, filters); !supported {
				continue
			}
			sp.Filters = filters
			sp.Pushed = sp.Preds[:pushed]
			sp.Preds = sp.Preds[pushed:]
			p.fire("pushdown", n)
		}
	})
}

// rulePushdownExtent extends a PathScan by a following child step whose
// predicates were all pushed down, when the store can filter a path extent
// scan directly (the fragmenting mappings: one clustered fragment scan
// with the predicate answered from the fragment's attribute tables).
func rulePushdownExtent(p *Plan, store nodestore.Store) {
	p.walk(func(n *Node) {
		if n.Op != OpNavigate || n.Input.Op != OpPathScan ||
			len(n.Input.Filters) > 0 || len(n.Steps) == 0 {
			return
		}
		sp := n.Steps[0]
		if sp.Strategy != StepNavigate || sp.Axis != xquery.AxisChild ||
			sp.Name == "*" || sp.Name == "" ||
			len(sp.Preds) > 0 || len(sp.Filters) == 0 {
			return
		}
		path := append(append([]string{}, n.Input.Path...), sp.Name)
		p.Probes++
		if _, supported := store.PathExtentFilteredCursor(path, sp.Filters); !supported {
			return
		}
		n.Input.Path = path
		n.Input.Filters = sp.Filters
		n.Steps = n.Steps[1:]
		p.fire("pushdown-extent", n.Input)
	})
}

// ruleJoins runs join selection over every FLWOR tuple chain: a for-clause
// whose sequence is variable-independent and whose new variable is one
// side of an unconsumed equality conjunct becomes a value join — a
// NestedLoopJoin always (the conjunct filters right after the binding),
// upgraded to a HashJoin when the system's options allow hash joins. This
// is the planning that used to live in the engine's analyze step.
func ruleJoins(p *Plan, opts Options) {
	var binds *varBindings
	p.walk(func(n *Node) {
		if n.Op != OpProject {
			return
		}
		// Gather the chain bottom-up: clauses in declaration order, then
		// the where conjuncts in split order (compile stacks them that way).
		var rev []*Node
		for c := n.Input; c != nil && c.Op != OpTupleSrc; c = c.Input {
			rev = append(rev, c)
		}
		var chain []*Node
		for i := len(rev) - 1; i >= 0; i-- {
			chain = append(chain, rev[i])
		}
		var wheres []*Node
		clauseVars := map[string]bool{}
		shadowed := map[string]bool{}
		for _, c := range chain {
			switch c.Op {
			case OpWhere:
				wheres = append(wheres, c)
			case OpFor, OpLet:
				// A variable bound by more than one clause is positional:
				// a conjunct referencing it means the latest binding, which
				// free-variable analysis cannot attribute. Leave every such
				// conjunct as a filter.
				if clauseVars[c.Var] {
					shadowed[c.Var] = true
				}
				clauseVars[c.Var] = true
			}
		}
		if len(wheres) == 0 {
			return
		}
		used := make([]bool, len(wheres))
		bound := map[string]bool{}
		if opts.HashJoins && binds == nil {
			binds = newVarBindings(p)
		}
		for _, cl := range chain {
			switch cl.Op {
			case OpLet:
				bound[cl.Var] = true
				continue
			case OpFor:
			default:
				continue
			}
			if !shadowed[cl.Var] && exprIndependent(cl.Seq.Expr) {
				if ci := findJoinConjunct(wheres, used, cl.Var, bound, clauseVars, shadowed, true); ci >= 0 {
					w := wheres[ci]
					b := w.Expr.(*xquery.Binary)
					probe, build := w.Cond.Kids[0], w.Cond.Kids[1]
					if vars := freeVars(b.Left); !(len(vars) == 1 && vars[cl.Var]) {
						probe, build = build, probe
					}
					cl.Op = OpNLJoin
					cl.Cond, cl.Probe, cl.Build = w.Cond, probe, build
					cl.Expr = w.Expr
					unlinkTupleOp(n, w)
					used[ci] = true
					p.fire("nested-loop-join", cl)
					// The hash index keys by string, which answers the
					// general comparison only when neither side holds a
					// number: a number compares numerically, so "7.0"
					// equals 7 but not the key "7".
					if opts.HashJoins && !binds.mayBeNumeric(probe, nil) && !binds.mayBeNumeric(build, nil) {
						cl.Op = OpHashJoin
						p.fire("hash-join", cl)
					}
				} else if ci := findJoinConjunct(wheres, used, cl.Var, bound, clauseVars, shadowed, false); ci >= 0 {
					// Theta conjunct (Q11/Q12's income > 5000 * count shape):
					// the comparison admits only a nested-loop join — there is
					// no hash bucket for an inequality — but fusing the filter
					// into the clause still lets the engine hoist the outer
					// side's key once per tuple and memoize the inner scan.
					w := wheres[ci]
					b := w.Expr.(*xquery.Binary)
					probe, build := w.Cond.Kids[0], w.Cond.Kids[1]
					if vars := freeVars(b.Left); !(len(vars) == 1 && vars[cl.Var]) {
						probe, build = build, probe
					}
					cl.Op = OpNLJoin
					cl.Cond, cl.Probe, cl.Build = w.Cond, probe, build
					cl.Expr = w.Expr
					unlinkTupleOp(n, w)
					used[ci] = true
					p.fire("nested-loop-join", cl)
				}
			}
			bound[cl.Var] = true
		}
	})
}

// varBindings maps each variable name to the sequences every clause that
// binds it ranges over (for, let, some/every), anywhere in the plan. A
// function parameter binds a nil sequence: its arguments are unknown.
type varBindings struct {
	seqs  map[string][]*Node
	funcs map[string]*FuncPlan
}

func newVarBindings(p *Plan) *varBindings {
	b := &varBindings{seqs: map[string][]*Node{}, funcs: p.Funcs}
	for _, name := range p.FuncNames {
		for _, param := range p.Funcs[name].Params {
			b.seqs[param] = append(b.seqs[param], nil)
		}
	}
	p.walk(func(n *Node) {
		switch n.Op {
		case OpFor, OpLet, OpNLJoin, OpHashJoin:
			b.seqs[n.Var] = append(b.seqs[n.Var], n.Seq)
		case OpQuantified:
			for i, v := range n.Expr.(*xquery.Quantified).Vars {
				b.seqs[v] = append(b.seqs[v], n.Kids[i])
			}
		}
	})
	return b
}

// mayBeNumeric reports whether n can evaluate to a number. Deliberately
// shallow, like vectorizer.numeric: only the forms join keys are written
// in — node-producing paths, string literals and functions, constructed
// elements and the variables bound to them — are known not to, and
// anything else may. A variable counts as numeric if any clause binding
// its name might bind a number, since the name alone does not say which
// clause is in scope; visiting breaks the cycle of a name rebound over
// itself.
func (b *varBindings) mayBeNumeric(n *Node, visiting map[string]bool) bool {
	if n == nil {
		return true
	}
	switch n.Op {
	case OpLiteral:
		_, str := n.Expr.(*xquery.StringLit)
		return !str
	case OpPathScan, OpPartitionedScan, OpRoot, OpCtor:
		return false
	case OpNavigate:
		if len(n.Steps) > 0 {
			return false
		}
		return b.mayBeNumeric(n.Input, visiting)
	case OpSelect, OpIndexProbe:
		return b.mayBeNumeric(n.Input, visiting)
	case OpVar:
		seqs, ok := b.seqs[n.Var]
		if !ok || visiting[n.Var] {
			return true
		}
		if visiting == nil {
			visiting = map[string]bool{}
		}
		visiting[n.Var] = true
		defer delete(visiting, n.Var)
		for _, s := range seqs {
			if b.mayBeNumeric(s, visiting) {
				return true
			}
		}
		return false
	case OpCall:
		name := n.Expr.(*xquery.Call).Name
		if _, user := b.funcs[name]; user {
			return true
		}
		switch name {
		case "string", "concat", "string-join", "name":
			return false
		case "distinct-values", "zero-or-one", "exactly-one":
			return len(n.Kids) != 1 || b.mayBeNumeric(n.Kids[0], visiting)
		}
	}
	return true
}

// findJoinConjunct looks for a comparison conjunct with one side depending
// only on the new for-variable and the other side evaluable from the
// bindings available before this clause. eqOnly restricts the search to
// equality — the hash-joinable shape of Q8/Q9/Q10; with eqOnly false any
// value comparison qualifies (Q11/Q12's theta shape), which still fuses
// into a nested-loop join. Conjuncts touching a shadowed variable never
// qualify.
func findJoinConjunct(wheres []*Node, used []bool, newVar string, bound, clauseVars, shadowed map[string]bool, eqOnly bool) int {
	// otherOK: the outer side must not touch the new variable and must not
	// reference clause variables that are not bound yet.
	otherOK := func(vars map[string]bool) bool {
		for v := range vars {
			if v == newVar {
				return false
			}
			if clauseVars[v] && !bound[v] {
				return false
			}
		}
		return true
	}
	for i, w := range wheres {
		if used[i] {
			continue
		}
		b, ok := w.Expr.(*xquery.Binary)
		if !ok {
			continue
		}
		if eqOnly {
			if b.Op != xquery.OpEq {
				continue
			}
		} else {
			switch b.Op {
			case xquery.OpEq, xquery.OpNeq, xquery.OpLt, xquery.OpLe, xquery.OpGt, xquery.OpGe:
			default:
				continue
			}
		}
		lv := freeVars(b.Left)
		rv := freeVars(b.Right)
		if anyShadowed(lv, shadowed) || anyShadowed(rv, shadowed) {
			continue
		}
		// A theta conjunct must relate the new variable to OTHER bindings:
		// a comparison against a constant is a filter, not a join, and is
		// left for predicate pushdown.
		if len(lv) == 1 && lv[newVar] && otherOK(rv) && (eqOnly || len(rv) > 0) {
			return i
		}
		if len(rv) == 1 && rv[newVar] && otherOK(lv) && (eqOnly || len(lv) > 0) {
			return i
		}
	}
	return -1
}

// anyShadowed reports whether any free variable is bound more than once
// in the clause chain.
func anyShadowed(vars, shadowed map[string]bool) bool {
	for v := range vars {
		if shadowed[v] {
			return true
		}
	}
	return false
}

// unlinkTupleOp removes one tuple operator from the chain below project.
func unlinkTupleOp(project, target *Node) {
	for c := project; c.Input != nil; c = c.Input {
		if c.Input == target {
			c.Input = target.Input
			return
		}
	}
}

// ruleCountJoin fuses count() into the join below it. A let clause of the
// shape
//
//	let $v := for $i in S where θ return $i
//
// whose FLWOR planned as a single vectorized join (OpHashJoin or OpNLJoin
// straight over the tuple source, return = the join variable) and whose
// every reference is count($v) never needs the match sequence: the join's
// index already knows how many items match — a bucket length for a hash
// join, a binary-search range for a sort join — so the let binds that
// number (CountOnly) and the counts read it (CountMatches). Q8, Q11 and
// Q12 have this shape; Q11/Q12 otherwise materialize hundreds of thousands
// of bindings per request only to count them.
//
// The rewrite is blocked — the let keeps materializing — when $v is
// referenced anywhere but as the whole argument of count() (a path over
// it, a positional filter $v[1], a bare reference), when anything in its
// scope rebinds the name (a later clause, a nested FLWOR or quantifier:
// telling those references apart is not worth a scope analysis), or when
// the inner FLWOR is more than the bare join (another clause, a residual
// where, an order by, a return other than the join variable).
func ruleCountJoin(p *Plan) {
	p.walk(func(e *Node) {
		if e.Op != OpProject {
			return
		}
		// Walking the chain top-down, scope accumulates what a clause's
		// variable is visible to — the return clause and everything the
		// later operators evaluate — and rebound the names those operators
		// bind, which hide an earlier binding from part of that scope.
		scope := []*Node{e.Ret}
		rebound := map[string]bool{}
		for c := e.Input; c != nil && c.Op != OpTupleSrc; c = c.Input {
			if c.Op == OpLet && !rebound[c.Var] && bareVectorizedJoin(c.Seq) {
				if counts, ok := countOnlyUses(scope, c.Var); ok {
					c.CountOnly = true
					for _, cn := range counts {
						cn.CountMode = CountMatches
					}
					p.fire("count-join", c)
				}
			}
			if c.Var != "" {
				rebound[c.Var] = true
			}
			scope = append(scope, c.Seq, c.Cond)
			for _, k := range c.Keys {
				scope = append(scope, k.Key)
			}
		}
	})
}

// bareVectorizedJoin reports whether seq is a FLWOR that planned as exactly
// one vectorized join returning its own variable.
func bareVectorizedJoin(seq *Node) bool {
	if seq.Op != OpProject {
		return false
	}
	j := seq.Input
	return (j.Op == OpNLJoin || j.Op == OpHashJoin) && j.Vectorized &&
		j.Input.Op == OpTupleSrc &&
		seq.Ret.Op == OpVar && seq.Ret.Var == j.Var
}

// countOnlyUses inspects every reference to $v under the scope roots and
// returns the drain-mode count($v) nodes; ok is false when $v is referenced
// any other way or rebound anywhere in the scope.
func countOnlyUses(scope []*Node, v string) (counts []*Node, ok bool) {
	refs := 0
	ok = true
	seen := map[*Node]bool{}
	for _, root := range scope {
		walkNode(root, seen, func(n *Node) {
			switch n.Op {
			case OpVar:
				if n.Var == v {
					refs++
				}
			case OpCount:
				if arg := n.Kids[0]; n.CountMode == CountDrain && arg.Op == OpVar && arg.Var == v {
					counts = append(counts, n)
				}
			case OpFor, OpLet, OpNLJoin, OpHashJoin:
				if n.Var == v {
					ok = false
				}
			case OpQuantified:
				for _, qv := range n.Expr.(*xquery.Quantified).Vars {
					if qv == v {
						ok = false
					}
				}
			}
		})
	}
	// Every count($v) contributes exactly one reference (its argument), so
	// equal totals mean no reference lives outside a count.
	return counts, ok && refs == len(counts)
}

// ruleOrderByElim drops OrderBy operators whose keys are all literals: a
// stable sort on constant keys is the identity, so the sort (a pipeline
// breaker that materializes the whole tuple stream) can be removed without
// changing a single output byte.
func ruleOrderByElim(p *Plan) {
	p.walk(func(n *Node) {
		if n.Op != OpProject {
			return
		}
		for c := n; c.Input != nil; c = c.Input {
			ob := c.Input
			if ob.Op != OpOrderBy {
				continue
			}
			constant := true
			for _, k := range ob.Keys {
				if k.Key.Op != OpLiteral {
					constant = false
					break
				}
			}
			if constant {
				c.Input = ob.Input
				p.fire("orderby-elim", n)
			}
		}
	})
}
