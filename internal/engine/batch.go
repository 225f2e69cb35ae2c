package engine

import (
	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
	"repro/internal/xquery"
)

// This file is the physical side of the planner's vectorize rule:
// batch-at-a-time execution. The marked scan→step→select pipeline prefixes
// run over NodeID vectors — one NextBatch fill, one tight loop per
// operator — instead of paying a virtual next dispatch per node, and fall
// back to the item iterators behind the fromBatch adapter for everything
// the marks do not cover. Batch operators
// are output-equivalent to the tuple operators they replace (the plan rule
// only marks prefixes where that is provable), so execution at any batch
// size is byte-identical to tuple-at-a-time execution.
//
// Batch ownership is producer-owned, like the iterator free lists: the
// vector a nextBatch call returns is valid until the next call on the same
// operator, and a consumer may compact it in place (the selection filter
// does). Buffers recycle through the Session's batch free list once an
// operator exhausts, so steady-state batch execution allocates nothing.

// batchIterator is the vector analogue of Iterator: nextBatch returns the
// next non-empty NodeID vector, or nil when the pipeline is exhausted.
// Like Iterators, batch iterators are single-use and must not be pulled
// again after returning nil.
type batchIterator interface {
	nextBatch() []tree.NodeID
}

// rampStart is the width of a batch pipeline's first fill: scans that feed
// early-terminating consumers (exists-style probes, arithmetic pulling one
// item) should not pay for a full vector of cursor work, so the width
// starts small and quadruples per batch up to the session's batch size.
const rampStart = 64

// batchScanIter fills NodeID vectors straight from a storage cursor: the
// leaf of every batch pipeline.
type batchScanIter struct {
	ev    *evaluator
	cur   nodestore.Cursor
	buf   []tree.NodeID
	width int
}

func (ev *evaluator) newBatchScan(cur nodestore.Cursor) *batchScanIter {
	width := rampStart
	if width > ev.batchSize {
		width = ev.batchSize
	}
	// The buffer starts at the ramp width too — a scan that yields a
	// handful of ids (Q1's people extent, a one-node /site scan) should
	// not pay for zeroing a full vector — and grows with the ramp.
	return &batchScanIter{ev: ev, cur: cur, buf: ev.sess.getBatchBuf(width), width: width}
}

func (b *batchScanIter) nextBatch() []tree.NodeID {
	if cap(b.buf) < b.width {
		b.ev.sess.putBatchBuf(b.buf)
		b.buf = b.ev.sess.getBatchBuf(b.width)
	}
	n := nodestore.FillBatch(b.cur, b.buf[:b.width])
	if n == 0 {
		b.ev.sess.putBatchBuf(b.buf)
		b.buf = nil
		return nil
	}
	if b.width < b.ev.batchSize {
		b.width *= 4
		if b.width > b.ev.batchSize {
			b.width = b.ev.batchSize
		}
	}
	return b.buf[:n]
}

// batchStepIter expands a context vector through one per-context path step
// into an output vector: the batch analogue of stepIter for the steps the
// vectorize rule admits (child, text() and non-nesting descendant steps
// without engine-evaluated predicates). Candidates append per context node
// in context order — exactly the tuple operator's emission order — and a
// batch is emitted once it reaches the target width, never splitting one
// context node's candidates across an append, so the loop stays tight
// without any per-candidate resume state.
type batchStepIter struct {
	ev  *evaluator
	in  batchIterator
	st  *plan.StepPlan
	env *bindings

	ctx  []tree.NodeID // unconsumed suffix of the current input batch
	out  []tree.NodeID
	done bool // input exhausted; never pull it again
}

func (ev *evaluator) newBatchStep(in batchIterator, sp *plan.StepPlan, env *bindings) *batchStepIter {
	// The output vector starts small and grows by appending: step fan-out
	// is unknown, and small navigations should not pay for a full vector.
	return &batchStepIter{ev: ev, in: in, st: sp, env: env, out: ev.sess.getBatchBuf(rampStart)[:0]}
}

func (b *batchStepIter) nextBatch() []tree.NodeID {
	b.out = b.out[:0]
	for {
		for len(b.ctx) > 0 {
			id := b.ctx[0]
			b.ctx = b.ctx[1:]
			b.out = b.ev.appendStep(b.out, id, b.st, b.env)
			if len(b.out) >= b.ev.batchSize {
				return b.out
			}
		}
		if b.done {
			break
		}
		if b.ctx = b.in.nextBatch(); b.ctx == nil {
			b.done = true
			break
		}
		if len(b.out) > 0 {
			// Emit before expanding the fresh input batch: expansions of
			// the previous batch's contexts are complete, and returning
			// here keeps output batches aligned with input fills.
			return b.out
		}
	}
	if len(b.out) > 0 {
		return b.out
	}
	if b.out != nil {
		b.ev.sess.putBatchBuf(b.out)
		b.out = nil
	}
	return nil
}

// batchSelectIter applies rank-independent whole-sequence predicates to
// NodeID vectors, compacting each batch in place — the selection-vector
// filter of the vectorized pipeline. Per-predicate positions keep counting
// across batch boundaries exactly like the chained tuple filters, though
// the admitted predicates are provably position-free.
type batchSelectIter struct {
	ev    *evaluator
	in    batchIterator
	preds []*plan.Node
	env   *bindings
	pos   []int // per-predicate running input position (1-based after ++)
}

func (ev *evaluator) newBatchSelect(in batchIterator, preds []*plan.Node, env *bindings) *batchSelectIter {
	return &batchSelectIter{ev: ev, in: in, preds: preds, env: env, pos: make([]int, len(preds))}
}

func (b *batchSelectIter) nextBatch() []tree.NodeID {
	for {
		ids := b.in.nextBatch()
		if ids == nil {
			return nil
		}
		for li, pred := range b.preds {
			w := 0
			for _, id := range ids {
				b.pos[li]++
				if b.ev.predMatch(pred, b.env, ref{id: id}, b.pos[li], 0) {
					ids[w] = id
					w++
				}
			}
			ids = ids[:w]
			if w == 0 {
				break
			}
		}
		if len(ids) > 0 {
			return ids
		}
	}
}

// fromBatchIter adapts a batch pipeline back into the item pipeline, so
// every unvectorized operator consumes a vectorized prefix unchanged.
type fromBatchIter struct {
	in  batchIterator
	cur []tree.NodeID
}

func (f *fromBatchIter) next() (ref, bool) {
	for {
		if len(f.cur) > 0 {
			id := f.cur[0]
			f.cur = f.cur[1:]
			return ref{id: id}, true
		}
		f.cur = f.in.nextBatch()
		if f.cur == nil {
			return ref{}, false
		}
	}
}

// batchPart reports whether a constructor content part carries the
// vectorize rule's BatchConstruct mark: a navigation over a bound
// variable. Scans and selects in content are marked Vectorized too, as
// pipelines of their own, and are pulled like any other part.
func (ev *evaluator) batchPart(part *plan.Node) bool {
	return part.Vectorized && ev.batchSize > 1 && part.Op == plan.OpNavigate &&
		part.Input != nil && part.Input.Op == plan.OpVar
}

// ctorBatchIDs evaluates one marked constructor content part — a
// navigation over a bound variable whose steps are all simple child/text
// steps — vector-at-a-time: the binding's NodeIDs walk every step through
// the store's bulk children probes directly, one tight loop per step over
// session-recycled scratch vectors, with no iterator objects and no
// per-item interface dispatch. Constructors sit at the leaves of FLWOR
// returns, where each binding holds a handful of nodes; pipeline
// machinery per part per tuple costs more than the navigation itself
// there, which is why this path loops in place instead of building batch
// operators. It returns the nodes the child/text steps reach, and the
// final attribute step when the part ends in one (the caller reads that
// attribute of each node, see ctorAttr); the caller returns ids to the
// session's batch free list. ok is false when the binding holds anything
// but stored nodes; the caller then falls back to the item pipeline, which
// is safe because bindings are materialized sequences (re-iteration never
// re-evaluates).
func (ev *evaluator) ctorBatchIDs(part *plan.Node, env *bindings) (ids []tree.NodeID, attr *plan.StepPlan, ok bool) {
	b := env.peek(part.Input.Var)
	if b == nil {
		return nil, nil, false
	}
	sess := ev.sess
	var cur []tree.NodeID
	if b.isNode {
		cur = append(sess.getBatchBuf(0), b.node)
	} else {
		cur = sess.getBatchBuf(len(b.val))
		for i, it := range b.val {
			n, isNode := it.(NodeItem)
			if !isNode {
				sess.putBatchBuf(cur)
				return nil, nil, false
			}
			cur[i] = n.ID
		}
	}
	steps := part.Steps
	// A final attribute step yields its values as string content — the
	// tuple pipeline's content emission turns attribute nodes into text.
	if n := len(steps); n > 0 && steps[n-1].Axis == xquery.AxisAttribute {
		attr, steps = steps[n-1], steps[:n-1]
	}
	for si, sp := range steps {
		next := sess.getBatchBuf(0)
		if sp.Axis == xquery.AxisChild && sp.Name != "*" && len(cur) == 1 && si < len(ev.ctorKids) {
			next = ev.memoChildrenByTag(&ev.ctorKids[si], cur[0], sp.Name, next)
		} else {
			// ctorPartBatchable admits only child and text steps here.
			for _, id := range cur {
				next = ev.appendStep(next, id, sp, env)
			}
		}
		sess.putBatchBuf(cur)
		cur = next
	}
	return cur, attr, true
}

// ctorAttr reads the final attribute step of a BatchConstruct part from
// one node, copied under NaiveStrings like every string System G touches.
func (ev *evaluator) ctorAttr(id tree.NodeID, attr *plan.StepPlan) (string, bool) {
	v, ok := ev.store.Attr(id, attr.Name)
	if ok && ev.opts.NaiveStrings {
		v = string(append([]byte(nil), v...))
	}
	return v, ok
}

// constructBatch appends the children of one marked constructor content
// part to out (see ctorBatchIDs).
func (ev *evaluator) constructBatch(part *plan.Node, env *bindings, out []Item) ([]Item, bool) {
	ids, attr, ok := ev.ctorBatchIDs(part, env)
	if !ok {
		return out, false
	}
	for _, id := range ids {
		if attr == nil {
			out = append(out, NodeItem{ID: id})
		} else if v, ok := ev.ctorAttr(id, attr); ok {
			out = append(out, StrItem(v))
		}
	}
	ev.sess.putBatchBuf(ids)
	return out, true
}

// kidSlot memoizes one (parent, tag) child probe. Constructor content
// parts share prefixes ($t/profile/..., $t/address/...), so consecutive
// parts repeat the same probe; the memo replays the stored answer
// instead of returning to the store. A miss costs only the copy of the
// probe's result (a handful of ids), so parents probed once — the
// common case for non-repeating prefixes — pay nothing measurable.
type kidSlot struct {
	valid  bool
	parent tree.NodeID
	tag    string
	ids    []tree.NodeID
}

// memoChildrenByTag appends the element children of parent carrying tag,
// serving from the slot on a (parent, tag) hit and otherwise doing the
// direct store probe and remembering its result.
func (ev *evaluator) memoChildrenByTag(slot *kidSlot, parent tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	if slot.valid && slot.parent == parent && slot.tag == tag {
		return append(buf, slot.ids...)
	}
	base := len(buf)
	buf = ev.store.ChildrenByTag(parent, tag, buf)
	slot.valid, slot.parent, slot.tag = true, parent, tag
	slot.ids = append(slot.ids[:0], buf[base:]...)
	return buf
}

// drainBatchCount exhausts a batch pipeline and returns the id count: the
// vectorized count() drain — no items are ever boxed.
func drainBatchCount(in batchIterator) int {
	total := 0
	for {
		ids := in.nextBatch()
		if ids == nil {
			return total
		}
		total += len(ids)
	}
}

// batchOf builds the batch pipeline for plan node n when the vectorize
// rule marked it and this execution's batch size admits batching, or nil
// when the node must run through the item operators. A non-nil result
// produces exactly the NodeIDs the item pipeline for n would, in the same
// order.
func (ev *evaluator) batchOf(n *plan.Node, env *bindings) batchIterator {
	bi := ev.batchOfNode(n, env)
	if bi != nil && ev.prof != nil {
		if st := ev.prof.statsFor(n); st != nil {
			return &profBatch{in: bi, st: st}
		}
	}
	return bi
}

func (ev *evaluator) batchOfNode(n *plan.Node, env *bindings) batchIterator {
	if ev.batchSize <= 1 {
		return nil
	}
	switch n.Op {
	case plan.OpPathScan:
		if !n.Vectorized {
			return nil
		}
		return ev.newBatchScan(ev.pathScanCursor(n))
	case plan.OpPartitionedScan:
		if !n.Vectorized {
			return nil
		}
		return ev.newBatchScan(ev.partScanCursor(n))
	case plan.OpNavigate:
		// Only a fully batchable step chain can extend the pipeline; a
		// partial prefix is exploited by dispatch, which splices the
		// adapter before the leftover steps.
		if n.BatchSteps != len(n.Steps) {
			return nil
		}
		in := ev.batchOf(n.Input, env)
		if in == nil {
			return nil
		}
		for _, sp := range n.Steps {
			in = ev.newBatchStep(in, sp, env)
		}
		return in
	case plan.OpSelect:
		if !n.Vectorized {
			return nil
		}
		in := ev.batchOf(n.Input, env)
		if in == nil {
			return nil
		}
		return ev.newBatchSelect(in, n.Preds, env)
	case plan.OpIndexProbe:
		// The probe batches whenever its input does: membership compaction
		// is just another selection vector. A declined probe passes the
		// input pipeline through untouched.
		in := ev.batchOf(n.Input, env)
		if in == nil {
			return nil
		}
		ids, ok := ev.store.TextCandidates(n.Tag, n.FT)
		if !ok {
			return in
		}
		return &batchFTIter{in: in, ids: ids}
	}
	return nil
}

// batchNavigate builds the batched prefix of an OpNavigate — the scan plus
// its leading batchable steps — and returns it as an item stream together
// with the steps the item operators must still apply. ok is false when the
// navigation has no batched prefix and must evaluate entirely through the
// item pipeline.
func (ev *evaluator) batchNavigate(n *plan.Node, env *bindings) (Iterator, []*plan.StepPlan, bool) {
	in := ev.batchOf(n.Input, env)
	if in == nil {
		return nil, nil, false
	}
	for _, sp := range n.Steps[:n.BatchSteps] {
		in = ev.newBatchStep(in, sp, env)
	}
	return &fromBatchIter{in: in}, n.Steps[n.BatchSteps:], true
}
