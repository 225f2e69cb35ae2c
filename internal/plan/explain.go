package plan

import (
	"fmt"
	"strings"

	"repro/internal/nodestore"
	"repro/internal/xquery"
)

// Explain renders the optimized plan as an indented operator tree followed
// by planning metadata: the rules that fired (with counts, in first-firing
// order) and the catalog probes performed. Subtrees the optimizer left
// untouched collapse to their source form, so the rendering highlights
// exactly where the plan diverges from naive evaluation — the per-system
// differences the paper's Table 3 is about.
func (p *Plan) Explain() string {
	return p.ExplainAnnotated(nil)
}

// ExplainAnnotated renders the plan like Explain, appending annot(n) to
// the primary line of every operator it names (an empty string appends
// nothing). When annot is non-nil, subtrees that contain an annotated
// operator below their root do not collapse to one source-form line —
// EXPLAIN ANALYZE must show every operator that carries counters, even
// in plans the optimizer left untouched. A nil annot reproduces Explain
// byte for byte.
func (p *Plan) ExplainAnnotated(annot func(*Node) string) string {
	var b strings.Builder
	for _, name := range p.FuncNames {
		fp := p.Funcs[name]
		fmt.Fprintf(&b, "Function %s($%s)\n", name, strings.Join(fp.Params, ", $"))
		renderNode(&b, fp.Body, 1, "", annot)
	}
	renderNode(&b, p.Root, 0, "", annot)
	b.WriteString(rulesSummary(p.Fired))
	fmt.Fprintf(&b, "meta probes: %d\n", p.Probes)
	return b.String()
}

// annotatedBelow reports whether any node strictly below n carries an
// annotation.
func annotatedBelow(n *Node, annot func(*Node) string) bool {
	found := false
	walkNode(n, map[*Node]bool{}, func(c *Node) {
		if c != n && annot(c) != "" {
			found = true
		}
	})
	return found
}

// ctorLabel renders a constructor: ones the vectorize rule marked render
// as BatchConstruct — marked content parts assemble their children
// vector-at-a-time, but the element built is byte-identical.
func ctorLabel(n *Node) string {
	tag := n.Expr.(*xquery.ElementCtor).Tag
	if n.Vectorized {
		return "BatchConstruct <" + tag + ">"
	}
	return "Element <" + tag + ">"
}

// rulesSummary aggregates rule firings into "name x count" in first-seen
// order.
func rulesSummary(fired []string) string {
	if len(fired) == 0 {
		return "rules fired: (none)\n"
	}
	var order []string
	counts := map[string]int{}
	for _, name := range fired {
		if counts[name] == 0 {
			order = append(order, name)
		}
		counts[name]++
	}
	parts := make([]string, len(order))
	for i, name := range order {
		if counts[name] == 1 {
			parts[i] = name
		} else {
			parts[i] = fmt.Sprintf("%s x%d", name, counts[name])
		}
	}
	return "rules fired: " + strings.Join(parts, ", ") + "\n"
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func line(b *strings.Builder, depth int, label, text string) {
	indent(b, depth)
	b.WriteString(label)
	b.WriteString(text)
	b.WriteByte('\n')
}

// renderNode emits the tree rendering of n. Collapsible subtrees (no
// optimizer decisions inside) render as one source-form line, unless an
// annotated operator hides below the collapse point.
func renderNode(b *strings.Builder, n *Node, depth int, label string, annot func(*Node) string) {
	if n == nil {
		return
	}
	suffix := ""
	if annot != nil {
		suffix = annot(n)
	}
	if s, ok := oneline(n); ok && (annot == nil || !annotatedBelow(n, annot)) {
		line(b, depth, label, s+suffix)
		return
	}
	self := func(text string) { line(b, depth, label, text+suffix) }
	kid := func(c *Node, lbl string) {
		if c != nil && c.Op != OpTupleSrc {
			renderNode(b, c, depth+1, lbl, annot)
		}
	}
	switch n.Op {
	case OpSerialize:
		self("Serialize")
		kid(n.Input, "")
	case OpProject:
		self("Project")
		kid(n.Input, "")
		kid(n.Ret, "return: ")
	case OpFor, OpLet:
		self(clauseLabel(n))
		kid(n.Input, "")
		kid(n.Seq, "seq: ")
	case OpNLJoin, OpHashJoin:
		self(joinLabel(n))
		kid(n.Input, "")
		kid(n.Seq, "seq: ")
	case OpWhere:
		if s, ok := oneline(n.Cond); ok {
			self("Select " + s)
			kid(n.Input, "")
		} else {
			self("Select")
			kid(n.Input, "")
			kid(n.Cond, "cond: ")
		}
	case OpOrderBy:
		keys := make([]string, 0, len(n.Keys))
		simple := true
		for _, k := range n.Keys {
			s, ok := oneline(k.Key)
			if !ok {
				simple = false
				break
			}
			if k.Descending {
				s += " descending"
			}
			keys = append(keys, s)
		}
		if simple {
			self("OrderBy " + strings.Join(keys, ", "))
			kid(n.Input, "")
		} else {
			self("OrderBy")
			kid(n.Input, "")
			for _, k := range n.Keys {
				kid(k.Key, "key: ")
			}
		}
	case OpNavigate:
		if len(n.Steps) == 0 {
			// All steps were fused away; the navigation is the identity
			// over its input.
			renderNode(b, n.Input, depth, label, annot)
			return
		}
		steps, sok := stepsString(n.Steps)
		if !sok {
			steps = ""
		}
		switch {
		case n.Input.Op == OpRoot && sok:
			self("Navigate " + steps)
		case sok:
			self("Navigate " + steps)
			kid(n.Input, "in: ")
		default:
			self("Navigate")
			kid(n.Input, "in: ")
			for _, sp := range n.Steps {
				indent(b, depth+1)
				ss, _ := stepsString([]*StepPlan{sp})
				b.WriteString("step: " + ss + "\n")
				for _, pr := range sp.Preds {
					renderNode(b, pr, depth+2, "pred: ", annot)
				}
			}
		}
	case OpPathScan:
		self(pathScanLabel(n))
	case OpGather:
		self(fmt.Sprintf("Gather [ordered, degree <= %d]", n.Degree))
		kid(n.Input, "")
	case OpPartitionedScan:
		self(partScanLabel(n))
	case OpIndexProbe:
		self(indexProbeLabel(n))
		kid(n.Input, "")
	case OpSelect:
		if n.Vectorized {
			// A vectorized filter evaluates its predicates over whole
			// batches with a selection vector.
			sels := make([]string, 0, len(n.Preds))
			simple := true
			for _, pr := range n.Preds {
				s, ok := oneline(pr)
				if !ok {
					simple = false
					break
				}
				sels = append(sels, s)
			}
			if simple {
				self("BatchSelect [sel=" + strings.Join(sels, ", ") + "]")
				kid(n.Input, "in: ")
			} else {
				self("BatchSelect")
				kid(n.Input, "in: ")
				for _, pr := range n.Preds {
					kid(pr, "sel: ")
				}
			}
			return
		}
		self("Select")
		kid(n.Input, "in: ")
		for _, pr := range n.Preds {
			kid(pr, "pred: ")
		}
	case OpCount:
		switch n.CountMode {
		case CountCatalogPath:
			self("Count [catalog /" + strings.Join(n.Path, "/") + "]")
		case CountCatalogDesc:
			self("Count [catalog //" + n.CountTag + "]")
			kid(n.CountCtx, "ctx: ")
		default:
			self("Count")
			kid(n.Kids[0], "")
		}
	case OpCtor:
		c := n.Expr.(*xquery.ElementCtor)
		self(ctorLabel(n))
		for i, a := range c.Attrs {
			for _, part := range n.CtorAttrs[i] {
				if part.Op == OpLiteral {
					continue
				}
				kid(part, "@"+a.Name+": ")
			}
		}
		for _, part := range n.Content {
			if part.Op == OpLiteral {
				continue
			}
			kid(part, inlinedLabel(part))
		}
	case OpIf:
		self("If")
		kid(n.Kids[0], "cond: ")
		kid(n.Kids[1], "then: ")
		kid(n.Kids[2], "else: ")
	case OpQuantified:
		q := n.Expr.(*xquery.Quantified)
		kind := "some"
		if q.Every {
			kind = "every"
		}
		self("Quantified " + kind + " $" + strings.Join(q.Vars, ", $"))
		for _, k := range n.Kids {
			kid(k, "in: ")
		}
		kid(n.Cond, "satisfies: ")
	case OpSequence:
		self("Sequence")
		for _, k := range n.Kids {
			kid(k, inlinedLabel(k))
		}
	case OpBinary:
		self("Op " + n.Expr.(*xquery.Binary).Op.String())
		kid(n.Kids[0], "")
		kid(n.Kids[1], "")
	case OpUnary:
		self("Neg")
		kid(n.Kids[0], "")
	case OpCall:
		self("Call " + n.Expr.(*xquery.Call).Name)
		for _, k := range n.Kids {
			kid(k, "")
		}
	default:
		self(n.Op.String())
	}
}

// inlinedLabel labels a content part the inline-let rule substituted with
// the let it replaced.
func inlinedLabel(n *Node) string {
	if n.Inlined == "" {
		return ""
	}
	return "let $" + n.Inlined + " := "
}

// clauseLabel renders a for or let clause; a let the count-join rule fused
// binds its join's match count, not the match sequence.
func clauseLabel(n *Node) string {
	s := fmt.Sprintf("%s $%s", n.Op, n.Var)
	if n.CountOnly {
		s += " [count-only]"
	}
	return s
}

// joinName is the operator name a join renders under: joins the vectorize
// rule marked render with a Batch prefix (BatchHashJoin, BatchNestedLoopJoin)
// — the batch operator builds its index from NodeID vectors and probes
// without per-tuple iterator chains, but emits byte-identical tuples — and
// a nested-loop join over numeric keys as BatchSortJoin, after its sorted
// key vector.
func joinName(n *Node) string {
	switch {
	case n.NumKeys:
		return "BatchSortJoin"
	case n.Vectorized:
		return "Batch" + n.Op.String()
	}
	return n.Op.String()
}

// joinLabel renders a join with its condition and, when the catalog knows
// it, the build-side cardinality the engine pre-sizes the index with.
func joinLabel(n *Node) string {
	s := fmt.Sprintf("%s $%s on %s", joinName(n), n.Var, xquery.UnparseExpr(n.Expr))
	if n.Vectorized && n.BuildCard > 0 {
		s += fmt.Sprintf(" [build=%d]", n.BuildCard)
	}
	if n.NumKeys {
		s += " [keys=num]"
	}
	return s
}

// catalogCount reports whether a count is answered from the catalog and
// renders as its own operator; a draining count — and one reading its
// count-only let's binding, which the let's line already shows — renders
// in source form.
func catalogCount(n *Node) bool {
	return n.CountMode == CountCatalogPath || n.CountMode == CountCatalogDesc
}

// pathScanLabel renders a PathScan with its pushed-down filters; scans the
// vectorize rule marked render as BatchScan, the batch-at-a-time operator.
func pathScanLabel(n *Node) string {
	s := "PathScan /"
	if n.Vectorized {
		s = "BatchScan /"
	}
	s += strings.Join(n.Path, "/")
	for _, f := range n.Filters {
		s += "[push: " + f.String() + "]"
	}
	return s
}

// partScanLabel renders a PartitionedScan: the tag extent or the path
// extent (with pushed-down filters) the store range-splits into morsels.
// Vectorized partitioned scans render as BatchScan with a partitioned
// marker — each morsel runs vector-at-a-time inside its Gather.
func partScanLabel(n *Node) string {
	if n.Tag != "" {
		if n.Vectorized {
			return "BatchScan //" + n.Tag + " (partitioned tag extent)"
		}
		return "PartitionedScan //" + n.Tag + " (tag extent)"
	}
	s := "PartitionedScan /"
	if n.Vectorized {
		s = "BatchScan /"
	}
	s += strings.Join(n.Path, "/")
	for _, f := range n.Filters {
		s += "[push: " + f.String() + "]"
	}
	if n.Vectorized {
		s += " (partitioned)"
	}
	return s
}

// indexProbeLabel renders an IndexProbe with its probed extent and the
// contains() conditions it pre-filters for.
func indexProbeLabel(n *Node) string {
	parts := make([]string, len(n.FT))
	for i, fp := range n.FT {
		parts[i] = ftProbeString(fp)
	}
	return "IndexProbe //" + n.Tag + " [" + strings.Join(parts, ", ") + "]"
}

// ftProbeString renders one full-text probe: the haystack chain below the
// probed element ("." for the whole subtree) and the literal needle.
func ftProbeString(p nodestore.TextProbe) string {
	hay := "."
	if len(p.Sub) > 0 {
		hay = strings.Join(p.Sub, "/")
	}
	return fmt.Sprintf("%s contains %q", hay, p.Needle)
}

// subtreePlain reports whether no optimizer decision is visible anywhere
// in the subtree, so it can collapse to its source form.
func subtreePlain(n *Node) bool {
	plain := true
	var visit func(*Node)
	seen := map[*Node]bool{}
	visit = func(n *Node) {
		if n == nil || seen[n] || !plain {
			return
		}
		seen[n] = true
		switch n.Op {
		case OpPathScan, OpNLJoin, OpHashJoin, OpGather, OpPartitionedScan,
			OpIndexProbe:
			plain = false
			return
		case OpCount:
			if catalogCount(n) {
				plain = false
				return
			}
		}
		if len(n.Rules) > 0 {
			plain = false
			return
		}
		for _, sp := range n.Steps {
			if sp.Strategy != StepNavigate || len(sp.Filters) > 0 || len(sp.FT) > 0 {
				plain = false
				return
			}
		}
		walkNode(n, map[*Node]bool{}, func(c *Node) {
			if c != n {
				visit(c)
			}
		})
	}
	visit(n)
	return plain
}

// oneline attempts a single-line rendering of the subtree: the exact
// source form when the optimizer left it untouched, or a composed form
// with inline step annotations when only step strategies changed.
func oneline(n *Node) (string, bool) {
	if n == nil {
		return "", false
	}
	if n.Expr != nil && subtreePlain(n) {
		switch n.Op {
		// Only expression forms collapse to their source text; structural
		// operators (FLWOR chains, constructors, sequences) stay trees —
		// they are where the interesting children live, and tuple
		// operators carry an Expr that names more than themselves.
		case OpLiteral, OpVar, OpContext, OpRoot, OpNavigate, OpSelect,
			OpBinary, OpUnary, OpCall, OpCount, OpQuantified, OpIf:
			return xquery.UnparseExpr(n.Expr), true
		}
		return "", false
	}
	switch n.Op {
	case OpNavigate:
		steps, ok := stepsString(n.Steps)
		if !ok {
			return "", false
		}
		if n.Input.Op == OpRoot {
			return steps, true
		}
		in, ok := oneline(n.Input)
		if !ok {
			return "", false
		}
		return in + steps, true
	case OpCount:
		if catalogCount(n) {
			return "", false
		}
		arg, ok := oneline(n.Kids[0])
		if !ok {
			return "", false
		}
		return "count(" + arg + ")", true
	case OpBinary:
		l, lok := oneline(n.Kids[0])
		r, rok := oneline(n.Kids[1])
		if !lok || !rok {
			return "", false
		}
		return "(" + l + " " + n.Expr.(*xquery.Binary).Op.String() + " " + r + ")", true
	case OpCall:
		parts := make([]string, len(n.Kids))
		for i, k := range n.Kids {
			s, ok := oneline(k)
			if !ok {
				return "", false
			}
			parts[i] = s
		}
		return n.Expr.(*xquery.Call).Name + "(" + strings.Join(parts, ", ") + ")", true
	case OpUnary:
		s, ok := oneline(n.Kids[0])
		if !ok {
			return "", false
		}
		return "-(" + s + ")", true
	}
	return "", false
}

// stepsString renders a step chain with inline annotations; ok is false
// when a predicate is too complex to render inline.
func stepsString(steps []*StepPlan) (string, bool) {
	var b strings.Builder
	for _, sp := range steps {
		switch sp.Axis {
		case xquery.AxisDescendant:
			b.WriteString("//")
			b.WriteString(sp.Name)
		case xquery.AxisAttribute:
			b.WriteString("/@")
			b.WriteString(sp.Name)
		case xquery.AxisText:
			b.WriteString("/text()")
		default:
			b.WriteString("/")
			b.WriteString(sp.Name)
		}
		switch sp.Strategy {
		case StepInlineText:
			b.WriteString("/text(){inline}")
		case StepAttrIndex:
			fmt.Fprintf(&b, "[idx: @%s = %q]", sp.IdxAttr, sp.IdxValue)
		}
		for _, f := range sp.Filters {
			b.WriteString("[push: " + f.String() + "]")
		}
		for _, fp := range sp.FT {
			b.WriteString("[ft: " + ftProbeString(fp) + "]")
		}
		if sp.Strategy == StepAttrIndex {
			// The retained predicate is the index condition already shown.
			continue
		}
		for _, pr := range sp.Preds {
			s, ok := oneline(pr)
			if !ok {
				return "", false
			}
			b.WriteString("[" + s + "]")
		}
	}
	return b.String(), true
}
