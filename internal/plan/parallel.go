package plan

import (
	"repro/internal/nodestore"
	"repro/internal/xquery"
)

// ruleParallelize is the morsel-style intra-query parallelism rewrite: it
// wraps order-preserving scan→select→project/count pipeline prefixes in a
// Gather whose leaf scan becomes a PartitionedScan the store can range-
// split into disjoint document-order morsels. At execution every partition
// runs the sub-pipeline on its own worker and an ordered gather
// concatenates the partial results in partition order — which IS the
// NodeID merge, because partition ranges are totally ordered — so output
// stays byte-identical to sequential evaluation; count() recombines by
// partial sums instead.
//
// The rule fires only where the rewrite is provably output-preserving:
//
//   - Path extent scans: nodes on one exact root label path can never
//     nest, so the subtree territories of the partitions are disjoint and
//     ordered, and any downward navigation (child, descendant, attribute,
//     text steps, with any per-context-node predicates) stays confined to
//     its partition.
//   - Tag extent scans (a descendant step from the root element): extent
//     nodes may nest (parlist inside parlist), so only per-context
//     operators may follow — no further descendant steps (their global
//     duplicate elimination spans partitions) and no attribute-index
//     steps (their probe reorders against the whole context).
//   - Whole-sequence filters (OpSelect) must be boolean-shaped and free
//     of position()/last(): global ranks don't survive partitioning.
//   - FLWOR pipelines parallelize over the first for clause when it scans
//     a splittable extent; let/where/join clauses re-evaluate per worker
//     (deterministically) and order by is a pipeline breaker that keeps
//     the chain sequential.
//
// Which scans split is a store capability (the *Partitions methods, whose
// ok=false declines a scan) probed at plan time like every other catalog consultation, and the firing is gated by
// the system profile's MaxDegree — the paper's embedded System G and the
// plain-traversal System F stay sequential.
func ruleParallelize(p *Plan, opts Options, store nodestore.Store) {
	if opts.MaxDegree <= 1 {
		return
	}
	pz := &parallelizer{p: p, opts: opts, store: store,
		rootTag: store.Tag(store.Root())}
	if g := pz.gather(p.Root.Input); g != nil {
		p.Root.Input = g
	}
	pz.counts(p.Root.Input, map[*Node]bool{})
}

type parallelizer struct {
	p       *Plan
	opts    Options
	store   nodestore.Store
	rootTag string
}

// gather attempts to parallelize the pipeline rooted at n, returning the
// Gather node to splice in (the transform of the subtree has then already
// happened) or nil when the pipeline does not qualify.
func (pz *parallelizer) gather(n *Node) *Node {
	scan := pz.pipeline(n)
	if scan == nil {
		return nil
	}
	g := &Node{Op: OpGather, Expr: n.Expr, Input: n, Degree: pz.opts.MaxDegree, Scan: scan}
	pz.p.fire("parallelize", g)
	return g
}

// counts wraps the arguments of draining count() nodes reachable outside
// predicates and outside already-gathered subtrees: those recombine by
// partial sums, so the workers never materialize their morsels.
func (pz *parallelizer) counts(n *Node, seen map[*Node]bool) {
	if n == nil || seen[n] || n.Op == OpGather {
		return
	}
	seen[n] = true
	if n.Op == OpCount && n.CountMode == CountDrain {
		if g := pz.gather(n.Kids[0]); g != nil {
			n.Kids[0] = g
		}
	}
	pz.counts(n.Input, seen)
	for _, k := range n.Kids {
		pz.counts(k, seen)
	}
	pz.counts(n.Seq, seen)
	pz.counts(n.Cond, seen)
	pz.counts(n.Ret, seen)
	for _, k := range n.Keys {
		pz.counts(k.Key, seen)
	}
	for _, parts := range n.CtorAttrs {
		for _, part := range parts {
			pz.counts(part, seen)
		}
	}
	for _, part := range n.Content {
		pz.counts(part, seen)
	}
}

// pipeline analyzes one pipeline head and, when it qualifies, rewrites its
// leaf into a PartitionedScan, returning that scan node.
func (pz *parallelizer) pipeline(n *Node) *Node {
	switch n.Op {
	case OpNavigate:
		return pz.navigate(n)
	case OpSelect:
		for _, pr := range n.Preds {
			if !pz.seqSafePred(pr) {
				return nil
			}
		}
		return pz.pipeline(n.Input)
	case OpProject:
		return pz.flwor(n)
	}
	return nil
}

// navigate qualifies a Navigate chain: a splittable path extent followed
// by arbitrary downward steps, or the root element followed by one
// descendant step (a tag extent scan) and per-context steps.
func (pz *parallelizer) navigate(n *Node) *Node {
	leaf := n.Input
	switch leaf.Op {
	case OpPathScan:
		// A one-label path is the root element itself; a descendant step
		// from it scans a whole tag extent.
		if len(leaf.Path) == 1 && leaf.Path[0] == pz.rootTag && len(leaf.Filters) == 0 &&
			len(n.Steps) > 0 && pz.tagStep(n.Steps[0]) && pz.stepsSafe(n.Steps[1:], true) &&
			pz.probeTag(n.Steps[0].Name) {
			scan := &Node{Op: OpPartitionedScan, Expr: leaf.Expr, Tag: n.Steps[0].Name}
			n.Input = scan
			n.Steps = n.Steps[1:]
			return scan
		}
		if !pz.stepsSafe(n.Steps, false) || !pz.probePath(leaf.Path, leaf.Filters) {
			return nil
		}
		leaf.Op = OpPartitionedScan
		return leaf
	case OpRoot:
		// Without a path catalog the only splittable leaf is a tag extent:
		// /root//tag or //tag directly.
		steps := n.Steps
		drop := 0
		if len(steps) > 0 && steps[0].Axis == xquery.AxisChild && steps[0].Name == pz.rootTag &&
			steps[0].Strategy == StepNavigate && len(steps[0].Preds) == 0 && len(steps[0].Filters) == 0 {
			drop = 1
		}
		if len(steps) <= drop || !pz.tagStep(steps[drop]) ||
			!pz.stepsSafe(steps[drop+1:], true) || !pz.probeTag(steps[drop].Name) {
			return nil
		}
		scan := &Node{Op: OpPartitionedScan, Expr: leaf.Expr, Tag: steps[drop].Name}
		n.Input = scan
		n.Steps = steps[drop+1:]
		return scan
	}
	return nil
}

// flwor qualifies a FLWOR chain: no order by, and the first for clause
// (below it only lets, which each worker re-evaluates deterministically)
// iterates a splittable scan.
func (pz *parallelizer) flwor(n *Node) *Node {
	var rev []*Node
	for c := n.Input; c != nil && c.Op != OpTupleSrc; c = c.Input {
		if c.Op == OpOrderBy {
			return nil
		}
		rev = append(rev, c)
	}
	for i := len(rev) - 1; i >= 0; i-- {
		c := rev[i]
		if c.Op == OpLet {
			continue
		}
		if c.Op != OpFor || c.Seq == nil || c.Seq.Op != OpNavigate {
			return nil
		}
		return pz.navigate(c.Seq)
	}
	return nil
}

// tagStep reports whether sp is a plain descendant step a tag extent can
// answer when the context is the root element. The root tag itself is
// excluded: its extent would include the context node.
func (pz *parallelizer) tagStep(sp *StepPlan) bool {
	return sp.Axis == xquery.AxisDescendant && sp.Strategy == StepNavigate &&
		len(sp.Preds) == 0 && len(sp.Filters) == 0 &&
		sp.Name != "*" && sp.Name != "" && sp.Name != pz.rootTag
}

// stepsSafe reports whether every downstream step preserves per-partition
// confinement. Path extents never nest, so their partitions own disjoint
// document-order subtree territories and every downward step qualifies;
// tag extents may nest, so descendant steps (global duplicate
// elimination) and attribute-index probes (global reordering) disqualify.
func (pz *parallelizer) stepsSafe(steps []*StepPlan, tagScan bool) bool {
	for _, sp := range steps {
		switch sp.Strategy {
		case StepNavigate, StepInlineText:
		case StepAttrIndex:
			if tagScan {
				return false
			}
		default:
			return false
		}
		if tagScan && sp.Axis == xquery.AxisDescendant {
			return false
		}
		// Step predicates keep their per-context-node focus under
		// partitioning and are always safe.
	}
	return true
}

// seqSafePred reports whether a whole-sequence filter predicate is
// independent of global ranks: boolean-shaped and free of position() and
// last() (the UsesLast annotation from compile already covers last()).
func (pz *parallelizer) seqSafePred(pr *Node) bool {
	if !pr.BoolShaped || pr.UsesLast {
		return false
	}
	isUser := func(name string) bool { _, ok := pz.p.Funcs[name]; return ok }
	return !usesFocusCallName(pr.Expr, isUser, "position")
}

// probeTag consults the store for tag extent partitionability, counting
// the catalog probe.
func (pz *parallelizer) probeTag(tag string) bool {
	pz.p.Probes++
	_, ok := pz.store.TagExtentPartitions(tag, 1)
	return ok
}

// probePath consults the store for (filtered) path extent
// partitionability, counting the catalog probe.
func (pz *parallelizer) probePath(path []string, fs []nodestore.ValueFilter) bool {
	pz.p.Probes++
	if len(fs) > 0 {
		_, ok := pz.store.PathExtentFilteredPartitions(path, fs, 1)
		return ok
	}
	_, ok := pz.store.PathExtentPartitions(path, 1)
	return ok
}
