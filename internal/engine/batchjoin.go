package engine

import (
	"math"
	"sort"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
	"repro/internal/xquery"
)

// This file is the join half of batch-at-a-time execution: the physical
// operators behind the planner's vectorize-join and vectorize-bind marks.
// Like every batch operator, they are output-equivalent to the tuple
// operators they replace — the binding order, match sets and emission
// order are identical by construction — so execution at any batch size
// stays byte-identical to tuple-at-a-time execution.
//
// Three operators live here:
//
//   - batchForTupleIter: for-clause binding straight off NodeID vectors.
//     The tuple operator routes every vectorized sequence through the
//     fromBatch adapter and pays one interface dispatch per item; this one
//     holds the batch pipeline itself and binds from the vector.
//   - the batch hash-join build: the joinIndex fills from NodeID batches,
//     and when the join key is an attribute path over a dictionary-encoded
//     store, the index is keyed by int32 dictionary codes — the probe then
//     compares integers, never materializing a key string per build row.
//   - thetaJoinTupleIter: the planned nested-loop join for non-equality
//     conjuncts (Q11/Q12's income > 5000·initial). There is no hash bucket
//     for an inequality, but the clause sequence is variable-independent,
//     so its items and their atomized key values memoize on the plan
//     (thetaIndexFor) — numeric keys as a float vector with a sorted
//     copy, so a comparison is a binary-search range — and each outer tuple
//     evaluates and converts its own side of the comparison exactly once.

// ---- vectorized for-clause binding ----

// batchForTupleIter expands each incoming tuple by the NodeID vectors of
// the clause's batch pipeline: the vectorize-bind operator. Produces
// exactly forTupleIter's bindings in exactly its order — the pipeline
// yields the same ids the item iterator would — without the fromBatch
// adapter between the scan pipeline and the tuple stream.
type batchForTupleIter struct {
	ev   *evaluator
	in   tupleIter
	node *plan.Node

	tp    *bindings
	bi    batchIterator
	cur   []tree.NodeID
	items Iterator // item-pipeline fallback when the sequence cannot batch
	slot  slot
}

func (f *batchForTupleIter) Next() (*bindings, bool) {
	for {
		if len(f.cur) > 0 {
			id := f.cur[0]
			f.cur = f.cur[1:]
			return f.slot.bind(f.tp, f.node.Var, ref{id: id}), true
		}
		if f.bi != nil {
			if f.cur = f.bi.nextBatch(); f.cur != nil {
				continue
			}
			f.bi = nil
		}
		if f.items != nil {
			if r, ok := f.items.next(); ok {
				return f.slot.bind(f.tp, f.node.Var, r), true
			}
			f.items = nil
		}
		tp, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		f.tp = tp
		// The sequence may depend on the tuple's bindings (pushed-down
		// predicates close over the environment), so the pipeline rebuilds
		// per tuple; the operators recycle their vectors through the
		// session free list, so the rebuild allocates nothing steady-state.
		if f.bi = f.ev.batchOf(f.node.Seq, tp); f.bi == nil {
			f.items = f.ev.iter(f.node.Seq, tp)
		}
	}
}

// ---- batch hash-join build ----

// attrKeyPath recognizes the join-key shape the code-keyed index admits:
// a plain navigation from the clause variable through predicate-free child
// steps to an attribute — $t/buyer/@person, $t2/@id, or
// $t/profile/interest/@category. Any other shape (text() keys, predicates,
// wildcard steps, computed keys) takes the generic build.
func attrKeyPath(n *plan.Node, probe *plan.Node) (tags []string, attr string, ok bool) {
	v, tags, attr, ok := navAttrPath(probe)
	if !ok || v != n.Var {
		return nil, "", false
	}
	return tags, attr, true
}

// navAttrPath recognizes the same shape over any variable and reports
// which one: the probe-side key of an attribute join ($p/@id over the
// outer binding) is structurally identical to the build-side key, just
// rooted at a different variable.
func navAttrPath(e *plan.Node) (v string, tags []string, attr string, ok bool) {
	if e == nil || e.Op != plan.OpNavigate || len(e.Steps) == 0 {
		return "", nil, "", false
	}
	if e.Input == nil || e.Input.Op != plan.OpVar {
		return "", nil, "", false
	}
	last := len(e.Steps) - 1
	for i, sp := range e.Steps {
		if sp.Strategy != plan.StepNavigate || len(sp.Preds) > 0 || len(sp.Filters) > 0 {
			return "", nil, "", false
		}
		if i == last {
			if sp.Axis != xquery.AxisAttribute || sp.Name == "" || sp.Name == "*" {
				return "", nil, "", false
			}
			attr = sp.Name
			continue
		}
		if sp.Axis != xquery.AxisChild || sp.Name == "" || sp.Name == "*" {
			return "", nil, "", false
		}
		tags = append(tags, sp.Name)
	}
	return e.Input.Var, tags, attr, true
}

// newBatchJoinIndex builds the hash-join index from the build side's batch
// pipeline: NodeID vectors fill the item list directly, and when the key
// is an attribute path over a dictionary-encoded store the index keys by
// int32 code — code equality is string equality within one store, so the
// match sets are identical to the string-keyed build, in the same order.
func (ev *evaluator) newBatchJoinIndex(n *plan.Node) *joinIndex {
	items := ev.buildItems(n)
	allNodes := true
	for _, it := range items {
		if _, ok := it.(NodeItem); !ok {
			allNodes = false
			break
		}
	}
	idx := &joinIndex{items: items}
	// When the outer-side key is an attribute path over a single variable,
	// the probe can walk store primitives straight to a dictionary code (or
	// attribute string) instead of entering the evaluator: record its shape
	// once. Applies to both index formats.
	if v, ptags, pattr, ok := navAttrPath(n.Build); ok {
		idx.probeVar, idx.probeTags, idx.probeAttr = v, ptags, pattr
		idx.probeFast = true
	}
	if tags, attr, ok := attrKeyPath(n, n.Probe); ok && allNodes {
		if ac, isCoded := ev.store.(nodestore.AttrCoder); isCoded {
			ev.fillCodeIndex(idx, n, tags, attr, ac)
			return idx
		}
	}
	ev.fillKeyIndex(idx, n)
	return idx
}

// buildItems materializes a join's variable-independent sequence, filling
// it straight from NodeID vectors when the sequence batches.
func (ev *evaluator) buildItems(n *plan.Node) Seq {
	env := &bindings{}
	bi := ev.batchOf(n.Seq, env)
	if bi == nil {
		return ev.eval(n.Seq, env)
	}
	var items Seq
	if n.BuildCard > 0 {
		items = make(Seq, 0, n.BuildCard)
	}
	for ids := bi.nextBatch(); ids != nil; ids = bi.nextBatch() {
		for _, id := range ids {
			items = append(items, NodeItem{ID: id})
		}
	}
	return items
}

// leafMatches returns the bucket of one key leaf: an AttrCode read and an
// int map probe on a code-keyed index, an Attr read and a string map probe
// otherwise. A missing attribute yields no key, hence no matches — exactly
// the generic path's empty atomized key sequence.
func (j *hashJoinTupleIter) leafMatches(leaf tree.NodeID) []int {
	if j.idx.byCode != nil {
		if c, has := j.idx.coder.AttrCode(leaf, j.idx.probeAttr); has {
			return j.idx.byCode[c]
		}
		return nil
	}
	if v, has := j.ev.store.Attr(leaf, j.idx.probeAttr); has {
		return j.idx.byKey[v]
	}
	return nil
}

// fastMatches is the vectorized probe: the tuple's key comes from store
// primitives (ChildrenByTag walks, AttrCode/Attr reads), never from the
// evaluator, and the bucket lookup compares integers on dictionary-encoded
// stores. Returns ok=false when the tuple's binding shape disqualifies the
// fast path (non-node or multi-item binding) — the caller then runs the
// generic evaluation, which remains the semantic definition.
func (j *hashJoinTupleIter) fastMatches(tp *bindings) ([]int, bool) {
	idx := j.idx
	b := tp.peek(idx.probeVar)
	if b == nil {
		return nil, false
	}
	ni := NodeItem{ID: b.node}
	if !b.isNode {
		if len(b.val) != 1 {
			return nil, false
		}
		var ok bool
		if ni, ok = b.val[0].(NodeItem); !ok {
			return nil, false
		}
	}
	if len(idx.probeTags) == 0 {
		// $p/@id: one attribute read, one bucket lookup.
		return j.leafMatches(ni.ID), true
	}
	ev := j.ev
	frontier := append(ev.sess.getBatchBuf(rampStart)[:0], ni.ID)
	frontier, next := ev.walkTags(frontier, ev.sess.getBatchBuf(rampStart)[:0], idx.probeTags)
	var matches []int
	if len(frontier) == 1 {
		// The common single-leaf case short-circuits the dedup machinery.
		matches = j.leafMatches(frontier[0])
	} else {
		matches = j.unionMatches(len(frontier), func(k int) []int { return j.leafMatches(frontier[k]) })
	}
	ev.sess.putBatchBuf(frontier)
	ev.sess.putBatchBuf(next)
	return matches, true
}

// walkTags replaces the nodes of frontier by the nodes their child path
// tags reaches, with next as scratch, and returns the two buffers as the
// walk leaves them.
func (ev *evaluator) walkTags(frontier, next []tree.NodeID, tags []string) ([]tree.NodeID, []tree.NodeID) {
	for _, tag := range tags {
		next = next[:0]
		for _, id := range frontier {
			next = ev.store.ChildrenByTag(id, tag, next)
		}
		frontier, next = next, frontier
	}
	return frontier, next
}

// fillCodeIndex keys the index by dictionary code, walking the key path
// with store primitives — no per-row evaluator environment, no key string
// materialization. Scratch vectors recycle through the session free list.
func (ev *evaluator) fillCodeIndex(idx *joinIndex, n *plan.Node, tags []string, attr string, ac nodestore.AttrCoder) {
	idx.coder = ac
	size := n.BuildCard
	if size == 0 {
		size = len(idx.items)
	}
	idx.byCode = make(map[int32][]int, size)
	frontier := ev.sess.getBatchBuf(rampStart)[:0]
	next := ev.sess.getBatchBuf(rampStart)[:0]
	var codes []int32 // per-item key codes, deduplicated existentially
	for i, it := range idx.items {
		frontier, next = ev.walkTags(append(frontier[:0], it.(NodeItem).ID), next, tags)
		codes = codes[:0]
		for _, leaf := range frontier {
			c, ok := ac.AttrCode(leaf, attr)
			if !ok {
				continue
			}
			// An item whose key path yields the same value twice (two
			// interests in one category) must index once: general
			// comparison is existential, not multiplicative. Key fan-out
			// per item is tiny, so a linear scan beats a map.
			dup := false
			for _, prev := range codes {
				if prev == c {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			codes = append(codes, c)
			idx.byCode[c] = append(idx.byCode[c], i)
		}
	}
	ev.sess.putBatchBuf(frontier)
	ev.sess.putBatchBuf(next)
}

// fillKeyIndex is the generic string-keyed build: the tuple build, and the
// batch build for key shapes the code index cannot prove (computed keys,
// text() keys, non-node build items).
func (ev *evaluator) fillKeyIndex(idx *joinIndex, n *plan.Node) {
	// Sized by the catalog's estimate where the planner made one (batch
	// builds); keys can be far fewer than items, so no guess otherwise.
	idx.byKey = make(map[string][]int, n.BuildCard)
	for i, it := range idx.items {
		envI := noBindings.bindOne(n.Var, it)
		// An item whose key expression yields the same value twice (two
		// interests in one category) must be indexed once: general
		// comparison is existential, not multiplicative.
		seen := map[string]bool{}
		for _, k := range ev.atomizeSeq(ev.eval(n.Probe, envI)) {
			ks := itemString(k)
			if seen[ks] {
				continue
			}
			seen[ks] = true
			idx.byKey[ks] = append(idx.byKey[ks], i)
		}
	}
}

// ---- theta join ----

// thetaIndex memoizes the variable-independent inner side of a planned
// non-equality join: the materialized items and, per item, the atomized
// values of the conjunct's key expression. Memoized on the plan, keyed by
// the join node, exactly like the hash-join index.
//
// The keys live in one of two layouts. When the planner proved the key
// side numeric (plan.Node.NumKeys) and every item has exactly one key, the
// index is typed: nums holds item i's key at nums[i], in inner-sequence
// order, and sorted holds the same keys ascending with NaN left out (NaN
// satisfies no comparison but !=). Any comparison against one operand is
// then a range of sorted, found by binary search. Otherwise keys holds the
// atomized key values per item and the probe compares them one by one;
// numKeys records that they are all numbers, which is enough to convert
// the outer operand once per tuple instead of once per comparison.
type thetaIndex struct {
	items Seq

	nums   []float64
	sorted []float64

	keys    []Seq // nil in the typed layout
	numKeys bool
}

// thetaProbe is one outer tuple's operand, prepared by thetaIndex.probe
// for match and count.
type thetaProbe struct {
	op compareOp // normalized to key OP operand
	// nums are the operand's values as numbers when the key side is
	// numeric, reduced to the ones that decide the comparison — a single
	// bound for <, <=, >, >=.
	nums []float64
	// vals are the operand's atomized values for non-numeric keys.
	vals Seq
}

// thetaIndexFor returns the plan's memoized theta index for the join,
// building it from the batch pipeline on first use.
func (ev *evaluator) thetaIndexFor(n *plan.Node) *thetaIndex {
	return memoized(ev, n, true, func() *thetaIndex {
		items := ev.buildItems(n)
		idx := &thetaIndex{items: items, keys: make([]Seq, len(items)), numKeys: n.NumKeys}
		single := idx.numKeys
		for i, it := range items {
			envI := noBindings.bindOne(n.Var, it)
			ks := ev.atomizeSeq(ev.eval(n.Probe, envI))
			idx.keys[i] = ks
			single = single && len(ks) == 1
			for _, k := range ks {
				if _, num := k.(NumItem); !num {
					idx.numKeys, single = false, false
				}
			}
		}
		if single {
			idx.nums = make([]float64, len(items))
			idx.sorted = make([]float64, 0, len(items))
			for i, ks := range idx.keys {
				x := float64(ks[0].(NumItem))
				idx.nums[i] = x
				if !math.IsNaN(x) {
					idx.sorted = append(idx.sorted, x)
				}
			}
			sort.Float64s(idx.sorted)
			idx.keys = nil
		}
		return idx
	})
}

// probe prepares one outer tuple's operand values: the index's single probe
// entry point, whichever layout holds the keys. Against numeric keys the
// comparison is numeric whatever the operand's type, so each value converts
// (strings parse) exactly once, here, and the existential comparison keeps
// only the values that decide it: NaN satisfies no ordering or equality and
// is dropped (under != it satisfies everything and stays), an ordering
// against several values is decided by the smallest (>, >=) or the largest
// (<, <=), and values that are all equal are one value.
func (idx *thetaIndex) probe(op compareOp, vals Seq, pr *thetaProbe) {
	pr.op, pr.vals, pr.nums = op, vals, pr.nums[:0]
	if !idx.numKeys {
		return
	}
	for _, v := range vals {
		a := atomicAtom(v)
		if x := a.num(); !math.IsNaN(x) || op == cmpNeq {
			pr.nums = append(pr.nums, x)
		}
	}
	if len(pr.nums) < 2 {
		return
	}
	bound := pr.nums[0]
	for _, x := range pr.nums[1:] {
		switch op {
		case cmpGt, cmpGe:
			bound = math.Min(bound, x)
		case cmpLt, cmpLe:
			bound = math.Max(bound, x)
		default:
			if x != bound {
				return
			}
		}
	}
	pr.nums = append(pr.nums[:0], bound)
}

// ranged reports whether the prepared operand selects a range of the sorted
// keys: the typed layout against at most one bound.
func (idx *thetaIndex) ranged(pr *thetaProbe) bool {
	return idx.keys == nil && len(pr.nums) <= 1
}

// match applies the existential general comparison between item k's keys
// and the prepared operand. The generic comparison loop is the last branch;
// the two numeric branches are the same loop over floats.
func (idx *thetaIndex) match(k int, pr *thetaProbe) bool {
	if idx.keys == nil {
		x := idx.nums[k]
		for _, b := range pr.nums {
			if compareValues(pr.op, x, b) {
				return true
			}
		}
		return false
	}
	for _, p := range idx.keys[k] {
		if idx.numKeys {
			for _, b := range pr.nums {
				if compareValues(pr.op, float64(p.(NumItem)), b) {
					return true
				}
			}
			continue
		}
		pa := atomicAtom(p)
		for _, b := range pr.vals {
			ba := atomicAtom(b)
			if compareAtoms(pr.op, &pa, &ba) {
				return true
			}
		}
	}
	return false
}

// count returns how many items match the prepared operand. In the typed
// layout a single-bound operand selects a range of the sorted keys — two
// binary searches, no key touched; everything else sweeps match over the
// items.
func (idx *thetaIndex) count(pr *thetaProbe) int {
	if idx.ranged(pr) {
		if len(pr.nums) == 0 {
			return 0
		}
		b := pr.nums[0]
		// ge and gt are the positions of the first key >= b and > b. A NaN
		// bound (only != keeps one) puts both at the end: no key equals it.
		ge := sort.Search(len(idx.sorted), func(i int) bool { return idx.sorted[i] >= b })
		gt := ge + sort.Search(len(idx.sorted)-ge, func(i int) bool { return idx.sorted[ge+i] > b })
		switch pr.op {
		case cmpLt:
			return ge
		case cmpLe:
			return gt
		case cmpGt:
			return len(idx.sorted) - gt
		case cmpGe:
			return len(idx.sorted) - ge
		case cmpEq:
			return gt - ge
		default:
			// !=: every key but the equal ones, NaN keys included.
			return len(idx.nums) - (gt - ge)
		}
	}
	n := 0
	for k := range idx.items {
		if idx.match(k, pr) {
			n++
		}
	}
	return n
}

// thetaJoinTupleIter executes a planned OpNLJoin whose conjunct is a value
// comparison: for each outer tuple it evaluates and prepares the outer side
// of the comparison once, then emits the matching items of the memoized
// index. Output-equivalent to the for+where pair it replaces — items emit
// in inner-sequence order (the index keeps the sequence order; its sorted
// copy only ever answers how many match), a tuple×item pair emits iff the
// general comparison holds — but the inner sequence evaluates once per
// Prepared instead of once per outer tuple, and the outer key converts once
// per tuple instead of once per pair.
type thetaJoinTupleIter struct {
	ev   *evaluator
	in   tupleIter
	node *plan.Node
	op   compareOp // the conjunct's operator as key OP outer operand

	idx    *thetaIndex
	pr     thetaProbe
	tp     *bindings
	active bool // tp's matches are being emitted
	i      int
	all    bool // every item matches the current tuple: emit without testing
	slot   slot
}

// flipped is each operator with its operands exchanged.
var flipped = [...]compareOp{cmpEq: cmpEq, cmpNeq: cmpNeq, cmpLt: cmpGt, cmpLe: cmpGe, cmpGt: cmpLt, cmpGe: cmpLe}

// newThetaJoinIter returns the vectorized nested-loop join for n, or nil
// when the conjunct is not a value comparison the operator handles (the
// caller then falls back to the for+where pair).
func (ev *evaluator) newThetaJoinIter(in tupleIter, n *plan.Node) *thetaJoinTupleIter {
	if n.Cond == nil || n.Probe == nil || n.Build == nil {
		return nil
	}
	b, ok := n.Cond.Expr.(*xquery.Binary)
	if !ok {
		return nil
	}
	op, ok := cmpOpOf(b.Op)
	if !ok {
		return nil
	}
	switch n.Probe {
	case n.Cond.Kids[0]:
	case n.Cond.Kids[1]:
		op = flipped[op]
	default:
		return nil
	}
	return &thetaJoinTupleIter{ev: ev, in: in, node: n, op: op}
}

// prepare evaluates the tuple's outer operand against the index. The index
// builds on the first tuple, not in the constructor: a join whose outer
// side is empty never touches the inner sequence, exactly like the
// for+where pair.
func (t *thetaJoinTupleIter) prepare(tp *bindings) {
	if t.idx == nil {
		t.idx = t.ev.thetaIndexFor(t.node)
	}
	t.idx.probe(t.op, t.ev.atomizeSeq(t.ev.eval(t.node.Build, tp)), &t.pr)
}

// countMatches is the join's count-only form (plan rule count-join): the
// number of bindings Next would produce for tp.
func (t *thetaJoinTupleIter) countMatches(tp *bindings) int {
	t.prepare(tp)
	return t.idx.count(&t.pr)
}

func (t *thetaJoinTupleIter) Next() (*bindings, bool) {
	for {
		if t.active {
			for t.i < len(t.idx.items) {
				k := t.i
				t.i++
				if t.all || t.idx.match(k, &t.pr) {
					return t.slot.bind(t.tp, t.node.Var, ref{item: t.idx.items[k]}), true
				}
			}
			t.active = false
		}
		tp, ok := t.in.Next()
		if !ok {
			return nil, false
		}
		t.prepare(tp)
		t.all = false
		if t.idx.ranged(&t.pr) {
			// The range is two binary searches: an empty one skips the
			// tuple, a full one skips the per-item test.
			switch t.idx.count(&t.pr) {
			case 0:
				continue
			case len(t.idx.items):
				t.all = true
			}
		}
		t.tp, t.active, t.i = tp, true, 0
	}
}
