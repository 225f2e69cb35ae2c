package plan

import (
	"repro/internal/nodestore"
	"repro/internal/xquery"
)

// ruleFulltext is the fulltext-pushdown rewrite: contains() conditions
// over literal needles become inverted-index candidate probes. Two shapes
// qualify:
//
//   - FLWOR wheres: a for clause whose sequence provably yields one
//     element tag, filtered by where conjuncts of the form
//     contains(string(...($v/...)), "lit") over exactly that variable,
//     gets its sequence wrapped in an IndexProbe over the conjuncts'
//     probes (several conjuncts intersect their postings).
//   - Step predicates: a named child/descendant step whose predicates are
//     all boolean-shaped and whose leading predicate(s) are context-rooted
//     contains() shapes intersects its candidate buffer with the index
//     answer before the predicates run.
//
// In both shapes the original predicates STAY in the plan: the index only
// narrows the candidate set (always a superset of the true matches — the
// tokenizer's maximal-run invariant, see internal/fulltext), and the
// predicates re-verify every survivor, so index-on results are
// byte-identical to the scan. Removed non-candidates can only be nodes
// the predicate would have rejected; like the filtered-cursor pushdown,
// dynamic errors a rejected candidate would have raised (exactly-one on a
// malformed sibling) are skipped.
//
// The rule runs dead last: parallelize and vectorize have already shaped
// the scans, and the probe wraps above a PartitionedScan so partition
// workers and batch operators see it unchanged. The probe itself is a
// catalog consultation: a store without an attached index declines with
// ok=false and the plan stays a scan.
func ruleFulltext(p *Plan, opts Options, store nodestore.Store) {
	if !opts.FulltextIndex {
		return
	}
	p.walk(func(n *Node) {
		switch n.Op {
		case OpProject:
			fulltextFLWOR(p, store, n)
		case OpNavigate:
			fulltextSteps(p, store, n)
		}
	})
}

// fulltextFLWOR probes the for clauses of one tuple chain.
func fulltextFLWOR(p *Plan, ts nodestore.TextSearcher, project *Node) {
	var rev []*Node
	for c := project.Input; c != nil && c.Op != OpTupleSrc; c = c.Input {
		rev = append(rev, c)
	}
	shadowed := map[string]bool{}
	seen := map[string]bool{}
	var chain []*Node
	for i := len(rev) - 1; i >= 0; i-- {
		c := rev[i]
		chain = append(chain, c)
		switch c.Op {
		case OpFor, OpLet, OpNLJoin, OpHashJoin:
			if seen[c.Var] {
				shadowed[c.Var] = true
			}
			seen[c.Var] = true
		}
	}
	for _, cl := range chain {
		if cl.Op != OpFor || cl.Seq == nil || shadowed[cl.Var] || cl.Seq.Op == OpIndexProbe {
			continue
		}
		tag := seqOutputTag(cl.Seq)
		if tag == "" || tag == "*" {
			continue
		}
		var probes []nodestore.TextProbe
		for _, w := range chain {
			if w.Op != OpWhere || w.Cond == nil {
				continue
			}
			for _, conj := range splitConjuncts(w.Cond.Expr) {
				if vars := freeVars(conj); !(len(vars) == 1 && vars[cl.Var]) {
					continue
				}
				if pr, ok := containsProbe(conj, varHaystack(cl.Var)); ok {
					probes = append(probes, pr)
				}
			}
		}
		if len(probes) == 0 {
			continue
		}
		p.Probes++
		if _, ok := ts.TextCandidates(tag, probes); !ok {
			continue
		}
		cl.Seq = &Node{Op: OpIndexProbe, Expr: cl.Seq.Expr,
			Input: cl.Seq, Tag: tag, FT: probes}
		p.fire("fulltext-pushdown", cl.Seq)
	}
}

// fulltextSteps probes the predicated steps of one Navigate chain.
func fulltextSteps(p *Plan, ts nodestore.TextSearcher, n *Node) {
	for _, sp := range n.Steps {
		if sp.Strategy != StepNavigate || len(sp.FT) > 0 ||
			(sp.Axis != xquery.AxisChild && sp.Axis != xquery.AxisDescendant) ||
			sp.Name == "*" || sp.Name == "" || len(sp.Preds) == 0 {
			continue
		}
		// Every remaining predicate must be boolean-shaped and free of
		// position()/last(): the candidate intersection removes only nodes
		// the probed predicates reject, so rank-independent predicates see
		// identical survivor sets and the step's output is unchanged — but
		// a positional predicate would see shifted ranks.
		isUser := func(name string) bool { _, ok := p.Funcs[name]; return ok }
		safe := true
		for _, pr := range sp.Preds {
			if !pr.BoolShaped || pr.UsesLast ||
				usesFocusCallName(pr.Expr, isUser, "position") {
				safe = false
				break
			}
		}
		if !safe {
			continue
		}
		var probes []nodestore.TextProbe
		for _, pr := range sp.Preds {
			for _, conj := range splitConjuncts(pr.Expr) {
				if cp, ok := containsProbe(conj, ctxHaystack); ok {
					probes = append(probes, cp)
				}
			}
		}
		if len(probes) == 0 {
			continue
		}
		p.Probes++
		if _, ok := ts.TextCandidates(sp.Name, probes); !ok {
			continue
		}
		sp.FT = probes
		p.fire("fulltext-pushdown", n)
	}
}

// seqOutputTag proves the single element tag a clause sequence yields, or
// "" when the tag is unknown. Selection and gathering never change the
// tag; a Navigate ends at its last step's name test for downward element
// axes.
func seqOutputTag(n *Node) string {
	switch n.Op {
	case OpNavigate:
		if len(n.Steps) == 0 {
			return seqOutputTag(n.Input)
		}
		last := n.Steps[len(n.Steps)-1]
		if last.Strategy == StepInlineText ||
			(last.Axis != xquery.AxisChild && last.Axis != xquery.AxisDescendant) {
			return ""
		}
		return last.Name
	case OpPathScan:
		return n.Path[len(n.Path)-1]
	case OpPartitionedScan:
		if n.Tag != "" {
			return n.Tag
		}
		return n.Path[len(n.Path)-1]
	case OpSelect, OpGather:
		return seqOutputTag(n.Input)
	}
	return ""
}

// varHaystack matches a haystack rooted at the given variable.
func varHaystack(v string) func(xquery.Expr) bool {
	return func(e xquery.Expr) bool {
		vr, ok := e.(*xquery.VarRef)
		return ok && vr.Name == v
	}
}

// ctxHaystack matches a haystack rooted at the context item.
func ctxHaystack(e xquery.Expr) bool {
	_, ok := e.(*xquery.ContextItem)
	return ok
}

// containsProbe recognizes one probe-able conjunct: contains(hay, "lit")
// with a non-empty literal needle and a haystack that — unwrapped through
// the single-argument value accessors — is a downward path from the
// accepted root. A chain of predicate-free named child steps (with an
// optional trailing text() step) names the probe's Sub chain; any other
// downward path (descendant steps, wildcards, predicates) still indexes
// against the whole subtree (Sub nil), because every downward result's
// string value is a slice of the subtree's text. Attribute axes reject:
// attribute values are not in the text index.
func containsProbe(e xquery.Expr, isRoot func(xquery.Expr) bool) (nodestore.TextProbe, bool) {
	c, ok := e.(*xquery.Call)
	if !ok || c.Name != "contains" || len(c.Args) != 2 {
		return nodestore.TextProbe{}, false
	}
	lit, ok := c.Args[1].(*xquery.StringLit)
	if !ok || lit.Val == "" {
		return nodestore.TextProbe{}, false
	}
	hay := c.Args[0]
	for {
		call, isCall := hay.(*xquery.Call)
		if !isCall || len(call.Args) != 1 {
			break
		}
		switch call.Name {
		case "string", "data", "exactly-one", "zero-or-one", "one-or-more":
			hay = call.Args[0]
		default:
			return nodestore.TextProbe{}, false
		}
	}
	input, steps := flattenPath(hay)
	if !isRoot(input) {
		return nodestore.TextProbe{}, false
	}
	var sub []string
	chain := true
	for i, st := range steps {
		switch st.Axis {
		case xquery.AxisChild:
			if st.Name == "*" || st.Name == "" || len(st.Preds) > 0 {
				chain = false
			} else if chain {
				sub = append(sub, st.Name)
			}
		case xquery.AxisText:
			// A trailing text() step reads the same subtree text; anywhere
			// else it cannot appear (text nodes have no children).
			if i != len(steps)-1 || len(st.Preds) > 0 {
				chain = false
			}
		case xquery.AxisDescendant:
			chain = false
		default:
			// Attribute content is not indexed.
			return nodestore.TextProbe{}, false
		}
	}
	if !chain {
		sub = nil
	}
	return nodestore.TextProbe{Sub: sub, Needle: lit.Val}, true
}
