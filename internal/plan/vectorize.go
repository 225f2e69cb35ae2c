package plan

import (
	"repro/internal/nodestore"
	"repro/internal/xquery"
)

// ruleVectorize is the batch-at-a-time execution rewrite: it marks the
// scan→step→select pipeline prefixes the evaluator may run over NodeID
// vectors instead of one item per virtual Next dispatch. The rule changes
// no plan shape — batching is an execution strategy, not an algebraic
// rewrite — so it only ever sets Vectorized/BatchSteps marks; the batch
// operators and the tuple operators they replace are output-equivalent by
// construction, and the item-iterator fallback behind the FromBatch adapter
// covers everything the marks do not reach.
//
// What may batch, and why it is provably output-preserving:
//
//   - Scan leaves (OpPathScan, OpPartitionedScan): a scan yields exactly
//     the ids of its store cursor in cursor order, so filling a vector per
//     NextBatch call instead of one id per Next changes nothing but the
//     dispatch granularity. Pushed-down ValueFilters evaluate inside the
//     store either way (batch cursors use a selection vector).
//   - Leading Navigate steps: child and text() steps are strictly
//     per-context operators — each context node's candidates are emitted
//     in place, with no cross-context sort or dedup — so expanding a
//     context vector into an output vector is the same computation in a
//     tighter loop. Descendant steps are only per-context when the context
//     run is provably non-nested (the parallelize rule's path-extent
//     argument: nodes of one exact label path never nest, and child steps
//     preserve disjointness); a descendant step destroys that invariant,
//     so at most one may batch and none may follow it on a tag extent,
//     whose nodes may nest from the start. Steps with engine-evaluated
//     predicates keep their per-context positional focus in the tuple
//     operators. Attribute and inlined-text steps leave the NodeID domain.
//   - OpSelect filters: a whole-sequence filter batches when every
//     predicate is boolean-shaped and free of position()/last() — the same
//     rank-independence analysis parallelize applies — because then the
//     selection vector's per-id verdicts cannot depend on where a batch
//     boundary falls.
//   - OpFor bindings and join build sides: a for-clause (or the scanned
//     side of a planned join) whose sequence batches binds straight off
//     the NodeID vectors; the bindings produced are identical, in
//     identical order.
//
// The rule composes under Gather: it marks the PartitionedScan leaf inside
// a gathered sub-pipeline, so every morsel worker rips through its
// partition's vectors, and the ordered gather (or the partial-sum count)
// recombines exactly as before. The marks only permit batching: an
// execution at width 1 (Session.BatchSize) runs every node
// tuple-at-a-time.
//
// The firing is cost-gated like every other catalog decision: the rule
// probes the extent size (a compile-time metadata access, counted toward
// the plan's probes) and leaves scans below minBatchExtent tuple-at-a-time
// — a one-node container scan gains nothing from vector machinery and the
// microsecond-scale queries over them would only pay its fixed setup.
func ruleVectorize(p *Plan, store nodestore.Store) {
	vz := &vectorizer{p: p, store: store}
	p.walk(func(n *Node) { vz.batched(n) })
}

// minBatchExtent is the smallest scan extent worth vectorizing.
const minBatchExtent = 32

type vectorizer struct {
	p     *Plan
	store nodestore.Store
	// done memoizes the per-node decision: walk visits every node once,
	// but batched recurses through Input chains ahead of the walk.
	done map[*Node]batchInfo
}

// batchInfo is the per-node analysis result. batched: the node's whole
// output can flow as NodeID batches — the condition its consumer needs to
// extend the pipeline upward. nonNested: the output run is provably
// disjoint subtrees in document order, which is what entitles a consumer
// to batch a descendant step without the tuple operator's covered-subtree
// duplicate elimination. The flag must flow transitively through the whole
// chain: a descendant step anywhere upstream (even inside a nested
// Navigate) may emit nested nodes, so only the recursion — never the shape
// of the immediate input node — can prove it.
type batchInfo struct {
	batched   bool
	nonNested bool
}

// batched marks n (and, recursively, its pipeline input) and reports its
// analysis result.
func (vz *vectorizer) batched(n *Node) batchInfo {
	if n == nil {
		return batchInfo{}
	}
	if vz.done == nil {
		vz.done = make(map[*Node]batchInfo)
	}
	if v, seen := vz.done[n]; seen {
		return v
	}
	v := vz.mark(n)
	vz.done[n] = v
	return v
}

func (vz *vectorizer) mark(n *Node) batchInfo {
	switch n.Op {
	case OpPathScan, OpPartitionedScan:
		if !vz.bigEnough(n) {
			return batchInfo{}
		}
		n.Vectorized = true
		vz.p.fire("vectorize", n)
		// Path extents never nest (one exact label path cannot be a
		// proper prefix of itself); tag extents may (parlist inside
		// parlist).
		return batchInfo{batched: true, nonNested: n.Op == OpPathScan || n.Tag == ""}
	case OpNavigate:
		in := vz.batched(n.Input)
		if !in.batched {
			return batchInfo{}
		}
		// Child and text steps preserve non-nestedness (children of
		// disjoint ordered subtrees are disjoint and ordered); one
		// descendant step is admitted only over a non-nested run and
		// destroys the property for everything after it.
		nonNested := in.nonNested
		k := 0
		for _, sp := range n.Steps {
			if len(sp.Preds) > 0 || sp.Strategy != StepNavigate {
				break
			}
			if sp.Axis == xquery.AxisDescendant {
				if !nonNested || sp.Name == "*" || sp.Name == "" || len(sp.Filters) > 0 {
					break
				}
				nonNested = false
			} else if sp.Axis != xquery.AxisChild && sp.Axis != xquery.AxisText {
				break
			}
			k++
		}
		n.BatchSteps = k
		return batchInfo{batched: k == len(n.Steps), nonNested: nonNested}
	case OpSelect:
		in := vz.batched(n.Input)
		if !in.batched {
			return batchInfo{}
		}
		for _, pr := range n.Preds {
			if !rankFreePred(vz.p, pr) {
				return batchInfo{}
			}
		}
		n.Vectorized = true
		vz.p.fire("vectorize", n)
		// Filtering keeps a subset in order: non-nestedness survives.
		return batchInfo{batched: true, nonNested: in.nonNested}
	case OpFor:
		// A for-clause whose sequence batches binds straight off the
		// NodeID vectors — no per-item FromBatch adapter between the scan
		// pipeline and the tuple stream. Purely an execution strategy:
		// the bindings produced are identical, in identical order.
		if vz.batched(n.Seq).batched {
			n.Vectorized = true
			vz.p.fire("vectorize-bind", n)
		}
		return batchInfo{}
	case OpCtor:
		// A constructor content part that navigates a bound variable
		// through purely mechanical steps (predicate-free, filter-free
		// child/text — no descendant, no fused strategies) assembles its
		// children vector-at-a-time: the binding's NodeID vector feeds the
		// batch step operators and whole result batches append as children,
		// instead of rebuilding the child slice item by item per tuple
		// (Q10/Q13-shaped FLWOR returns). The admitted steps are strictly
		// per-context with no cross-context reordering, so the children
		// produced are identical, in identical order.
		marked := false
		for _, part := range n.Content {
			if ctorPartBatchable(part) {
				part.Vectorized = true
				part.BatchSteps = len(part.Steps)
				marked = true
			}
		}
		if marked {
			n.Vectorized = true
			vz.p.fire("vectorize-construct", n)
		}
		return batchInfo{}
	case OpNLJoin, OpHashJoin:
		// A join whose scanned (build) side batches materializes its
		// index from NodeID vectors and probes without per-tuple iterator
		// chains. The index contains exactly the items the tuple build
		// loop would have produced, keyed identically (dictionary codes
		// stand in for strings only within one store, where code equality
		// IS string equality), so match sets and emission order are
		// unchanged. BuildCard is the catalog's size estimate for the
		// indexed side; the engine pre-sizes with it, EXPLAIN renders it.
		// A nested-loop join over statically numeric keys is a sort join:
		// the engine indexes the keys as a sorted float vector.
		if vz.batched(n.Seq).batched {
			n.Vectorized = true
			n.BuildCard = vz.scanCard(n.Seq)
			n.NumKeys = n.Op == OpNLJoin && vz.numeric(n.Probe)
			vz.p.fire("vectorize-join", n)
		}
		return batchInfo{}
	}
	return batchInfo{}
}

// numeric reports whether every atom n can evaluate to is a number: the
// static type that makes a general comparison against it numeric whatever
// the other operand holds. Deliberately shallow — the forms join keys are
// actually written in (Q11/Q12's 5000 * exactly-one(...)), not a type
// system.
func (vz *vectorizer) numeric(n *Node) bool {
	switch n.Op {
	case OpLiteral:
		_, ok := n.Expr.(*xquery.NumberLit)
		return ok
	case OpCount, OpUnary:
		return true
	case OpBinary:
		switch n.Expr.(*xquery.Binary).Op {
		case xquery.OpAdd, xquery.OpSub, xquery.OpMul, xquery.OpDiv, xquery.OpMod:
			return true
		}
	case OpCall:
		name := n.Expr.(*xquery.Call).Name
		if _, user := vz.p.Funcs[name]; user {
			return false
		}
		switch name {
		case "number", "sum", "string-length":
			return true
		case "exactly-one", "zero-or-one":
			return len(n.Kids) == 1 && vz.numeric(n.Kids[0])
		}
	case OpSequence:
		for _, k := range n.Kids {
			if !vz.numeric(k) {
				return false
			}
		}
		return len(n.Kids) > 0
	}
	return false
}

// ctorPartBatchable reports whether one constructor content part is a
// navigation over a bound variable whose every step the batch operators
// can run: child (named or wildcard) and text() steps with no engine
// predicates, no pushed filters and no fused strategies, plus optionally
// one final named attribute step — in element content an attribute node
// contributes exactly its string value, which the batch constructor emits
// directly. Descendant steps are excluded — the variable's node run
// carries no non-nestedness proof.
func ctorPartBatchable(part *Node) bool {
	if part.Op != OpNavigate || part.Input == nil || part.Input.Op != OpVar || len(part.Steps) == 0 {
		return false
	}
	for i, sp := range part.Steps {
		if sp.Strategy != StepNavigate || len(sp.Preds) > 0 || len(sp.Filters) > 0 {
			return false
		}
		if sp.Axis == xquery.AxisAttribute && sp.Name != "*" && i == len(part.Steps)-1 {
			continue
		}
		if sp.Axis != xquery.AxisChild && sp.Axis != xquery.AxisText {
			return false
		}
	}
	return true
}

// bigEnough probes the store for the scan's extent size — a catalog
// consultation counted like every other compile-time metadata access —
// and reports whether it clears the vectorization threshold. The probe is
// a pure metadata read of the store's catalog (TagCard/PathCard, zero
// allocations — see BenchmarkBigEnough), never the extent itself, which at
// factor 0.1 would copy tens of thousands of ids per ad-hoc compile just to
// compare a length against 32. A store that declines has no such scan.
// Filters do not enter the estimate: a filtered scan still reads the whole
// extent, which is exactly the work that batches.
func (vz *vectorizer) bigEnough(n *Node) bool {
	vz.p.Probes++
	c, ok := vz.extentCard(n)
	return ok && c >= minBatchExtent
}

// extentCard reads a scan node's extent size from the store's catalog.
func (vz *vectorizer) extentCard(n *Node) (int, bool) {
	if n.Tag != "" {
		return vz.store.TagCard(n.Tag)
	}
	return vz.store.PathCard(n.Path)
}

// scanCard returns the cardinality of a scan-shaped node from the
// catalog, or 0 when unknown — the hash-join build-side estimate EXPLAIN
// renders and the engine pre-sizes its index with. Not counted as a probe:
// it re-reads the same statistics bigEnough already charged for.
func (vz *vectorizer) scanCard(n *Node) int {
	// Unwrap the pipeline down to its scan leaf: a zero-step Navigate is a
	// cardinality-preserving adapter, and a Select only shrinks the run —
	// the leaf's extent size stays a valid pre-sizing estimate.
	for n != nil && (n.Op == OpSelect || (n.Op == OpNavigate && len(n.Steps) == 0)) {
		n = n.Input
	}
	if n == nil || (n.Op != OpPathScan && n.Op != OpPartitionedScan) {
		return 0
	}
	if c, ok := vz.extentCard(n); ok {
		return c
	}
	return 0
}

// rankFreePred reports whether a whole-sequence filter predicate is
// independent of global ranks: boolean-shaped and free of position() and
// last() — the same admission test the parallelize rule applies to
// sequence filters, for the same reason (batch boundaries, like partition
// boundaries, must not be observable).
func rankFreePred(p *Plan, pr *Node) bool {
	if !pr.BoolShaped || pr.UsesLast {
		return false
	}
	isUser := func(name string) bool { _, ok := p.Funcs[name]; return ok }
	return !xquery.UsesFocusCall(pr.Expr, isUser, "position")
}
