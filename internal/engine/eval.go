package engine

import (
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
	"repro/internal/xquery"
)

// bindings is a linked environment of variable bindings. Bound values are
// always materialized sequences, so re-referencing a variable is safe and
// never re-evaluates its defining expression.
type bindings struct {
	name   string
	val    Seq
	parent *bindings
}

func (b *bindings) bind(name string, val Seq) *bindings {
	return &bindings{name: name, val: val, parent: b}
}

func (b *bindings) lookup(name string) Seq {
	for e := b; e != nil; e = e.parent {
		if e.name == name {
			return e.val
		}
	}
	errf("unbound variable $%s", name)
	return nil
}

// peek is lookup without the unbound-variable panic, for opportunistic
// fast paths that fall back to full evaluation when the binding is absent.
func (b *bindings) peek(name string) (Seq, bool) {
	for e := b; e != nil; e = e.parent {
		if e.name == name {
			return e.val, true
		}
	}
	return nil, false
}

// focus is the dynamic context of predicate evaluation. It is held by
// value in the evaluator so entering a predicate allocates nothing.
type focus struct {
	item Item
	pos  int // 1-based
	size int // 0 while streaming a predicate that provably ignores last()
}

// evaluator executes one query run: a physical operator builder over the
// compiled plan. All optimization decisions were made by the planner; the
// evaluator only realizes the chosen strategies. It separates what
// concurrent executions may share from what they must not: store, opts and
// funcs are read-only for the whole run (the plan is immutable after
// Prepare), while focus, depth and everything reachable through sess are
// mutable scratch owned by exactly one goroutine.
type evaluator struct {
	store nodestore.Store
	opts  Options
	// funcs are the compiled user function bodies of the plan.
	funcs map[string]*plan.FuncPlan
	// sess holds the run's mutable scratch: iterator free lists and the
	// hash-join index cache. Per-worker when the caller supplies one, per-
	// execution otherwise.
	sess     *Session
	focus    focus
	hasFocus bool
	depth    int

	// degree is the execution's intra-query parallelism budget (the
	// Session's Degree captured at execute); gathers lists the fan-outs
	// this execution spawned so execute can end them on the way out.
	// part/partNode bind a partition worker's evaluator to its morsel of
	// the plan's PartitionedScan leaf; both are nil on the root evaluator.
	degree   int
	gathers  []*gather
	part     nodestore.Cursor
	partNode *plan.Node

	// batchSize is the execution's vector width for the plan's vectorized
	// prefixes, resolved at execute from the Session override, the engine
	// Options and the nodestore default; 1 or less runs strictly
	// tuple-at-a-time.
	batchSize int

	// ctorKids memoizes one (parent, tag) child probe per constructor step
	// depth. Sibling content parts of the same constructor navigate the
	// same bound node through shared prefixes ($p/profile/gender,
	// $p/profile/age, ...), so each depth repeats the probe a neighboring
	// part just made; the slot replays that probe's ids without returning
	// to the store.
	ctorKids [2]kidSlot

	// prof collects EXPLAIN ANALYZE counters when non-nil. The normal
	// path keeps it nil and pays one pointer check per operator
	// construction; partition workers never carry one (they report
	// through their gather's per-morsel slots instead).
	prof *profile
}

const maxRecursion = 2000

// eval fully materializes the value of n: the explicit materialization
// point used for variable bindings, sort keys and atomized arguments.
func (ev *evaluator) eval(n *plan.Node, env *bindings) Seq {
	return materialize(ev.iter(n, env))
}

// iter builds the pull-based pipeline for plan node n. Sequence-producing
// operators (scans, navigation, FLWOR chains, comma sequences) return lazy
// operators; scalar forms (arithmetic, comparisons, quantifiers, most
// function calls) do their work here, pulling from their input streams
// with short-circuits, and return a trivial iterator over the result.
func (ev *evaluator) iter(n *plan.Node, env *bindings) Iterator {
	ev.depth++
	if ev.depth > maxRecursion {
		errf("expression nesting too deep")
	}
	if ev.prof != nil {
		if st := ev.prof.statsFor(n); st != nil {
			start := time.Now()
			it := ev.dispatch(n, env)
			st.ns += int64(time.Since(start))
			ev.depth--
			// A vectorized operator surfacing through the item adapter is
			// already counted by its batch wrapper; timing it twice here
			// would double its inclusive time.
			if f, ok := it.(*fromBatchIter); ok {
				if _, ok := f.in.(*profBatch); ok {
					return it
				}
			}
			return &profIter{in: it, st: st}
		}
	}
	it := ev.dispatch(n, env)
	// No defer: an evaluation panic abandons the evaluator, so the counter
	// need not survive unwinding, and this runs per operator node.
	ev.depth--
	return it
}

func (ev *evaluator) dispatch(n *plan.Node, env *bindings) Iterator {
	switch n.Op {
	case plan.OpSerialize:
		return ev.iter(n.Input, env)
	case plan.OpLiteral:
		switch v := n.Expr.(type) {
		case *xquery.StringLit:
			return one(StrItem(v.Val))
		case *xquery.NumberLit:
			return one(NumItem(v.Val))
		}
	case plan.OpVar:
		return ev.newVarIter(env.lookup(n.Var))
	case plan.OpContext:
		if !ev.hasFocus {
			errf("context item used outside a predicate")
		}
		return one(ev.focus.item)
	case plan.OpRoot:
		return one(DocItem{})
	case plan.OpPathScan, plan.OpPartitionedScan:
		// Vectorized scans fill NodeID batches straight from the store
		// cursor and surface items through the adapter; the tuple scan is
		// the fallback for unmarked plans and batch size 1.
		if bi := ev.batchOf(n, env); bi != nil {
			return &fromBatchIter{in: bi}
		}
		if n.Op == plan.OpPartitionedScan {
			return &nodeCursorIter{cur: ev.partScanCursor(n)}
		}
		return &nodeCursorIter{cur: ev.pathScanCursor(n)}
	case plan.OpGather:
		return ev.iterGather(n, env)
	case plan.OpIndexProbe:
		return ev.iterIndexProbe(n, env)
	case plan.OpNavigate:
		// A batched prefix (scan plus leading per-context steps) runs
		// vector-at-a-time; the leftover steps consume it as items.
		if in, rest, ok := ev.batchNavigate(n, env); ok {
			return ev.iterSteps(in, rest, env)
		}
		return ev.iterSteps(ev.iter(n.Input, env), n.Steps, env)
	case plan.OpSelect:
		// Positions span the whole input sequence.
		if bi := ev.batchOf(n, env); bi != nil {
			return &fromBatchIter{in: bi}
		}
		return ev.filterCandidates(ev.iter(n.Input, env), n.Preds, env)
	case plan.OpProject:
		return &flatMapTupleIter{ev: ev, in: ev.buildTuples(n.Input, env), ret: n.Ret}
	case plan.OpQuantified:
		return one(BoolItem(ev.evalQuantified(n, env, 0)))
	case plan.OpIf:
		if ev.evalBool(n.Kids[0], env) {
			return ev.iter(n.Kids[1], env)
		}
		return ev.iter(n.Kids[2], env)
	case plan.OpBinary:
		return ev.iterBinary(n, env)
	case plan.OpUnary:
		s, ok := ev.iter(n.Kids[0], env).Next()
		if !ok {
			return emptyIter{}
		}
		return one(NumItem(-toNumber(ev.atomize(s))))
	case plan.OpCall:
		return ev.iterCall(n, env)
	case plan.OpCount:
		return ev.iterCount(n, env)
	case plan.OpSequence:
		return &sequenceIter{ev: ev, items: n.Kids, env: env}
	case plan.OpCtor:
		return one(ev.construct(n, env))
	}
	errf("unhandled plan operator %v", n.Op)
	return nil
}

// pathScanCursor opens the store cursor of an OpPathScan: the extent of an
// absolute label path from the store's path catalog, applying pushed-down
// filters inside the store when the planner fused them. Both the tuple and
// the batch scan operators pull from it.
func (ev *evaluator) pathScanCursor(n *plan.Node) nodestore.Cursor {
	if len(n.Filters) > 0 {
		if cur, ok := ev.store.PathExtentFilteredCursor(n.Path, n.Filters); ok {
			return cur
		}
	} else if cur, ok := ev.store.PathExtentCursor(n.Path); ok {
		return cur
	}
	// Unreachable for planned scans: the planner probed the catalog.
	errf("store cannot answer path extent /%s", strings.Join(n.Path, "/"))
	return nil
}

// varIter streams a bound (materialized) sequence: the recyclable
// counterpart of seqIter for the hot variable-reference case.
type varIter struct {
	ev       *evaluator
	s        Seq
	i        int
	released bool
}

func (ev *evaluator) newVarIter(s Seq) *varIter {
	free := ev.sess.varFree
	if n := len(free); n > 0 {
		v := free[n-1]
		ev.sess.varFree = free[:n-1]
		// Rebind ev: a Session outlives executions, so a recycled iterator
		// may carry the previous execution's evaluator.
		v.ev, v.s, v.released = ev, s, false
		return v
	}
	return &varIter{ev: ev, s: s}
}

func (v *varIter) Next() (Item, bool) {
	if v.i >= len(v.s) {
		v.release()
		return nil, false
	}
	it := v.s[v.i]
	v.i++
	return it, true
}

// release is idempotent: a stray Next after exhaustion must not insert
// the iterator into the free list twice (two pipelines would then share
// one object and interleave).
func (v *varIter) release() {
	if v.released {
		return
	}
	v.s, v.i, v.released = nil, 0, true
	v.ev.sess.varFree = append(v.ev.sess.varFree, v)
}

// sequenceIter streams a comma sequence, building each part's pipeline
// only when the stream reaches it.
type sequenceIter struct {
	ev    *evaluator
	items []*plan.Node
	env   *bindings
	cur   Iterator
}

func (s *sequenceIter) Next() (Item, bool) {
	for {
		if s.cur != nil {
			if v, ok := s.cur.Next(); ok {
				return v, true
			}
			s.cur = nil
		}
		if len(s.items) == 0 {
			return nil, false
		}
		s.cur = s.ev.iter(s.items[0], s.env)
		s.items = s.items[1:]
	}
}

// ---- paths ----

// iterSteps composes the planned steps into a chain of streaming operators
// over the context stream in, realizing the strategy the planner chose for
// each step.
func (ev *evaluator) iterSteps(in Iterator, steps []*plan.StepPlan, env *bindings) Iterator {
	for _, sp := range steps {
		switch sp.Strategy {
		case plan.StepInlineText:
			// Inlining (System C): child::tag/text() over a store that
			// inlines single #PCDATA children is a column read. Context
			// nodes whose fragment lacks the column fall back to
			// navigation individually.
			in = ev.newInlineTextIter(in, sp)
		case plan.StepAttrIndex:
			// Attribute-index lookup: the index probe validates candidates
			// against the whole context, so the context materializes here.
			// Contexts the probe cannot validate (non-monotone node sets)
			// fall back to navigation with the predicate.
			ctx := materialize(in)
			if out, ok := ev.attrIndexStep(ctx, sp.Name, sp.IdxAttr, sp.IdxValue); ok {
				in = out.Iter()
			} else if sp.Axis == xquery.AxisDescendant {
				in = ev.descendantStepIter(ctx.Iter(), sp, env)
			} else {
				in = ev.newStepIter(ctx.Iter(), sp, env)
			}
		default:
			if sp.Axis == xquery.AxisDescendant {
				in = ev.descendantStepIter(in, sp, env)
			} else {
				in = ev.newStepIter(in, sp, env)
			}
		}
	}
	return in
}

// newStepIter takes a recycled stepIter from the free list (keeping its
// grown candidate buffer) or allocates a fresh one.
func (ev *evaluator) newStepIter(in Iterator, sp *plan.StepPlan, env *bindings) *stepIter {
	free := ev.sess.stepFree
	if n := len(free); n > 0 {
		d := free[n-1]
		ev.sess.stepFree = free[:n-1]
		// Rebind ev, not just the operands: a Session is reused across
		// executions of different Prepared queries, and a stale evaluator
		// would navigate the previous query's store with its funcs.
		d.ev, d.in, d.st, d.env = ev, in, sp, env
		d.ft, d.ftOn = ev.stepFT(sp)
		return d
	}
	d := &stepIter{ev: ev, in: in, st: sp, env: env}
	d.ft, d.ftOn = ev.stepFT(sp)
	return d
}

// release returns an exhausted stepIter to the evaluator's free list.
// Iterators are single-use: Next must not be called again after it has
// returned false, which is what makes self-recycling safe.
func (d *stepIter) release() {
	d.in, d.st, d.env = nil, nil, nil
	d.pending, d.inner = nil, nil
	d.bi, d.bn = 0, 0
	d.ft, d.ftOn = nil, false
	d.ev.sess.stepFree = append(d.ev.sess.stepFree, d)
}

// stepIter streams a child, attribute or text step over the context
// stream. The candidates of each stored context node are gathered into a
// scratch buffer reused across context nodes (one relation probe or
// sibling walk per node) and filtered in place by the step predicates with
// per-context-node positions. Predicates the planner pushed down evaluate
// inside the store's filtered cursor instead; contexts the store cannot
// filter (constructed elements, the document node) evaluate them here.
type stepIter struct {
	ev  *evaluator
	in  Iterator
	st  *plan.StepPlan
	env *bindings

	buf     []tree.NodeID // scratch candidates of the current stored node
	bi, bn  int
	pending Item     // single candidate of an attribute step
	inner   Iterator // generic fallback for document/constructed contexts

	// ft is the full-text candidate set of the step's FT probes (ftOn set
	// when the store answered): candidates intersect before the predicates
	// run, so non-candidates never pay the contains() evaluation.
	ft   []tree.NodeID
	ftOn bool
}

func (d *stepIter) Next() (Item, bool) {
	for {
		if d.bi < d.bn {
			id := d.buf[d.bi]
			d.bi++
			return NodeItem{ID: id}, true
		}
		if d.pending != nil {
			v := d.pending
			d.pending = nil
			return v, true
		}
		if d.inner != nil {
			if v, ok := d.inner.Next(); ok {
				return v, true
			}
			d.inner = nil
		}
		ctx, ok := d.in.Next()
		if !ok {
			d.release()
			return nil, false
		}
		d.expand(ctx)
	}
}

// expand loads the candidates of one context item into the scratch buffer
// (stored nodes) or the fallback slots (everything else).
func (d *stepIter) expand(ctx Item) {
	ev, st := d.ev, d.st
	n, isNode := ctx.(NodeItem)
	if !isNode {
		cands := materialize(ev.candidates(ctx, st))
		if preds := st.AllPreds(); len(preds) > 0 {
			cands = ev.applyPredicates(cands, preds, d.env)
		}
		d.inner = cands.Iter()
		return
	}
	s := ev.store
	d.bi, d.bn = 0, 0
	switch st.Axis {
	case xquery.AxisChild:
		switch {
		case st.Name == "*":
			d.buf = s.Children(n.ID, d.buf[:0])
			d.filterKind(tree.Element)
		case len(st.Filters) > 0:
			if cur, ok := s.ChildrenByTagFilteredCursor(n.ID, st.Name, st.Filters); ok {
				d.buf = drainCursor(cur, d.buf[:0])
				d.bn = len(d.buf)
			} else {
				// The store lost the capability the planner probed for
				// (cannot happen for planned pushdowns); evaluate the
				// pushed predicates here instead.
				d.buf = s.ChildrenByTag(n.ID, st.Name, d.buf[:0])
				d.bn = ev.filterIDs(d.buf, st.Pushed, d.env)
			}
		default:
			d.buf = s.ChildrenByTag(n.ID, st.Name, d.buf[:0])
			d.bn = len(d.buf)
		}
	case xquery.AxisText:
		d.buf = s.Children(n.ID, d.buf[:0])
		d.filterKind(tree.Text)
	case xquery.AxisAttribute:
		if v, ok := s.Attr(n.ID, st.Name); ok {
			if ev.opts.NaiveStrings {
				v = string(append([]byte(nil), v...))
			}
			item := AttrItem{Owner: n.ID, Name: st.Name, Value: v}
			if len(st.Preds) == 0 || len(ev.applyPredicates(Seq{item}, st.Preds, d.env)) == 1 {
				d.pending = item
			}
		}
		return
	}
	if d.ftOn {
		// The probed predicates reject every non-candidate, and the step's
		// predicates are all boolean-shaped (the rule's gate), so dropping
		// non-candidates first changes no outcome.
		d.bn = ftKeep(d.buf[:d.bn], d.ft)
	}
	if len(st.Preds) > 0 {
		d.bn = ev.filterIDs(d.buf[:d.bn], st.Preds, d.env)
	}
}

// drainCursor appends every id of cur to buf.
func drainCursor(cur nodestore.Cursor, buf []tree.NodeID) []tree.NodeID {
	for {
		id, ok := cur.Next()
		if !ok {
			return buf
		}
		buf = append(buf, id)
	}
}

// filterKind keeps only the buffered candidates of one node kind.
func (d *stepIter) filterKind(k tree.Kind) {
	w := 0
	for _, id := range d.buf {
		if d.ev.store.Kind(id) == k {
			d.buf[w] = id
			w++
		}
	}
	d.bn = w
}

// filterIDs applies the step predicates to a materialized candidate buffer
// in place and returns the surviving length. Positions are ranks within
// the buffer, and the buffer length is the context size, so positional
// predicates and last() see exactly the per-context-node semantics.
func (ev *evaluator) filterIDs(ids []tree.NodeID, preds []*plan.Node, env *bindings) int {
	n := len(ids)
	for _, pred := range preds {
		w := 0
		for i := 0; i < n; i++ {
			if ev.predMatch(pred, env, NodeItem{ID: ids[i]}, i+1, n) {
				ids[w] = ids[i]
				w++
			}
		}
		n = w
	}
	return n
}

// applyPredicates filters a materialized sequence by each predicate in
// turn with positional semantics.
func (ev *evaluator) applyPredicates(items Seq, preds []*plan.Node, env *bindings) Seq {
	for _, pred := range preds {
		var kept Seq
		size := len(items)
		for i, it := range items {
			if ev.predMatch(pred, env, it, i+1, size) {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items
}

// descendantStepIter evaluates a descendant step. Descendant steps from
// nested context nodes can produce duplicates out of document order, which
// the data model forbids; when the (materialized) context is a document-
// order run of stored nodes the operator streams, skipping context nodes
// covered by an earlier subtree, and otherwise it falls back to
// materializing the output and restoring document order with a sort.
func (ev *evaluator) descendantStepIter(in Iterator, sp *plan.StepPlan, env *bindings) Iterator {
	ft, ftOn := ev.stepFT(sp)
	ctx := materialize(in)
	if len(ctx) == 1 || (len(sp.Preds) == 0 && sortedNodeRun(ctx)) {
		return &descStreamIter{ev: ev, ctx: ctx, st: sp, env: env,
			skip: len(ctx) > 1, ft: ft, ftOn: ftOn}
	}
	var out Seq
	for _, it := range ctx {
		cand := ev.candidates(it, sp)
		if ftOn {
			cand = &ftFilterIter{in: cand, ids: ft}
		}
		out = append(out, materialize(ev.filterCandidates(cand, sp.Preds, env))...)
	}
	return dedupNodes(out).Iter()
}

// descStreamIter streams a descendant step over a document-order context.
// With skip set, context nodes inside an already-expanded subtree are
// dropped: their descendants are a subset of what the covering node
// already emitted, so the output is duplicate-free and document-ordered by
// construction.
type descStreamIter struct {
	ev     *evaluator
	ctx    Seq
	i      int
	st     *plan.StepPlan
	env    *bindings
	cur    Iterator
	maxEnd tree.NodeID
	skip   bool
	ft     []tree.NodeID
	ftOn   bool
}

func (d *descStreamIter) Next() (Item, bool) {
	for {
		if d.cur != nil {
			if v, ok := d.cur.Next(); ok {
				return v, true
			}
			d.cur = nil
		}
		if d.i >= len(d.ctx) {
			return nil, false
		}
		it := d.ctx[d.i]
		d.i++
		if d.skip {
			n := it.(NodeItem) // sortedNodeRun established this
			if n.ID < d.maxEnd {
				continue
			}
			if end := d.ev.store.SubtreeEnd(n.ID); end > d.maxEnd {
				d.maxEnd = end
			}
		}
		cand := d.ev.candidates(it, d.st)
		if d.ftOn {
			cand = &ftFilterIter{in: cand, ids: d.ft}
		}
		d.cur = d.ev.filterCandidates(cand, d.st.Preds, d.env)
	}
}

// candidates returns the axis candidates of one context item as a stream.
func (ev *evaluator) candidates(it Item, sp *plan.StepPlan) Iterator {
	switch n := it.(type) {
	case NodeItem:
		return ev.storedCandidates(n, sp)
	case DocItem:
		return ev.docCandidates(sp)
	case *Constructed:
		return stepFromConstructed(n, sp).Iter()
	case AttrItem:
		return emptyIter{}
	default:
		errf("path step over atomic value")
		return nil
	}
}

// docCandidates steps from the virtual document node: its only child is
// the root element.
func (ev *evaluator) docCandidates(sp *plan.StepPlan) Iterator {
	root := ev.store.Root()
	rootTag := ev.store.Tag(root)
	switch sp.Axis {
	case xquery.AxisChild:
		if sp.Name == "*" || sp.Name == rootTag {
			return one(NodeItem{ID: root})
		}
		return emptyIter{}
	case xquery.AxisDescendant:
		rest := ev.storedCandidates(NodeItem{ID: root}, sp)
		if sp.Name == "*" || sp.Name == rootTag {
			return &concatIter{parts: []Iterator{one(NodeItem{ID: root}), rest}}
		}
		return rest
	default:
		return emptyIter{}
	}
}

// storedCandidates streams one axis step from a stored node, pulling from
// the store's cursors so no candidate id slice materializes.
func (ev *evaluator) storedCandidates(n NodeItem, sp *plan.StepPlan) Iterator {
	s := ev.store
	switch sp.Axis {
	case xquery.AxisChild:
		if sp.Name == "*" {
			return &kindFilterIter{store: s, cur: s.ChildrenCursor(n.ID), kind: tree.Element}
		}
		return &nodeCursorIter{cur: s.ChildrenByTagCursor(n.ID, sp.Name)}
	case xquery.AxisDescendant:
		if sp.Name == "*" {
			return ev.wildcardDescendants(n).Iter()
		}
		return &nodeCursorIter{cur: s.DescendantsCursor(n.ID, sp.Name)}
	case xquery.AxisAttribute:
		if v, ok := s.Attr(n.ID, sp.Name); ok {
			if ev.opts.NaiveStrings {
				v = string(append([]byte(nil), v...))
			}
			return one(AttrItem{Owner: n.ID, Name: sp.Name, Value: v})
		}
		return emptyIter{}
	case xquery.AxisText:
		return &kindFilterIter{store: s, cur: s.ChildrenCursor(n.ID), kind: tree.Text}
	}
	return emptyIter{}
}

// kindFilterIter streams the children of one node keeping a single node
// kind: element children for child::*, text children for text().
type kindFilterIter struct {
	store nodestore.Store
	cur   nodestore.Cursor
	kind  tree.Kind
}

func (k *kindFilterIter) Next() (Item, bool) {
	for {
		id, ok := k.cur.Next()
		if !ok {
			return nil, false
		}
		if k.store.Kind(id) == k.kind {
			return NodeItem{ID: id}, true
		}
	}
}

// wildcardDescendants collects every element in the subtree of n in
// document order by recursive child traversal, the generic strategy all
// stores support.
func (ev *evaluator) wildcardDescendants(n NodeItem) Seq {
	s := ev.store
	var out Seq
	var walk func(id tree.NodeID)
	walk = func(id tree.NodeID) {
		cur := s.ChildrenCursor(id)
		for {
			c, ok := cur.Next()
			if !ok {
				return
			}
			if s.Kind(c) == tree.Element {
				out = append(out, NodeItem{ID: c})
				walk(c)
			}
		}
	}
	walk(n.ID)
	return out
}

// textStepPlan is the synthetic text() step of the inline-text fallback.
var textStepPlan = &plan.StepPlan{Axis: xquery.AxisText}

// inlineTextIter answers a fused child/text() step from inlined columns
// (System C): supported fragments read the column, unsupported context
// nodes navigate normally. Both produce the text content, so results
// serialize identically either way.
type inlineTextIter struct {
	ev    *evaluator
	in    Iterator
	st    *plan.StepPlan
	inner Iterator // navigation fallback for one context item
}

func (ev *evaluator) newInlineTextIter(in Iterator, sp *plan.StepPlan) *inlineTextIter {
	free := ev.sess.inlineFree
	if n := len(free); n > 0 {
		d := free[n-1]
		ev.sess.inlineFree = free[:n-1]
		// Rebind ev for the same reason as newStepIter.
		d.ev, d.in, d.st = ev, in, sp
		return d
	}
	return &inlineTextIter{ev: ev, in: in, st: sp}
}

func (d *inlineTextIter) release() {
	d.in, d.st, d.inner = nil, nil, nil
	d.ev.sess.inlineFree = append(d.ev.sess.inlineFree, d)
}

func (d *inlineTextIter) Next() (Item, bool) {
	for {
		if d.inner != nil {
			if v, ok := d.inner.Next(); ok {
				return v, true
			}
			d.inner = nil
		}
		ctx, ok := d.in.Next()
		if !ok {
			d.release()
			return nil, false
		}
		if n, isNode := ctx.(NodeItem); isNode {
			v, present, supported := d.ev.store.InlinedChildText(n.ID, d.st.Name)
			if supported {
				if present {
					return StrItem(v), true
				}
				continue
			}
		}
		d.inner = &flatMapIter{
			outer: d.ev.candidates(ctx, d.st),
			fn:    func(c Item) Iterator { return d.ev.candidates(c, textStepPlan) },
		}
	}
}

// attrIndexStep answers a child step with an attribute-equality predicate
// from the value index. ok is false when the store has no index, the
// context is not a sorted node set, or candidates cannot be validated
// cheaply — the caller then evaluates normally.
func (ev *evaluator) attrIndexStep(ctx Seq, tag, aname, value string) (Seq, bool) {
	candidates, supported := ev.store.AttrLookup(aname, value)
	if !supported {
		return nil, false
	}
	// The context must be a monotone node set so parent membership can be
	// answered by binary search.
	ids := make([]tree.NodeID, len(ctx))
	for i, it := range ctx {
		n, isNode := it.(NodeItem)
		if !isNode {
			return nil, false
		}
		if i > 0 && n.ID <= ids[i-1] {
			return nil, false
		}
		ids[i] = n.ID
	}
	var out Seq
	for _, c := range candidates {
		if ev.store.Tag(c) != tag {
			continue
		}
		p := ev.store.Parent(c)
		j := sort.Search(len(ids), func(k int) bool { return ids[k] >= p })
		if j < len(ids) && ids[j] == p {
			out = append(out, NodeItem{ID: c})
		}
	}
	return out, true
}

func stepFromConstructed(c *Constructed, sp *plan.StepPlan) Seq {
	var out Seq
	switch sp.Axis {
	case xquery.AxisChild:
		for _, ch := range c.Children {
			if el, ok := ch.(*Constructed); ok && (sp.Name == "*" || el.Tag == sp.Name) {
				out = append(out, el)
			}
		}
	case xquery.AxisDescendant:
		var walk func(el *Constructed)
		walk = func(el *Constructed) {
			for _, ch := range el.Children {
				if sub, ok := ch.(*Constructed); ok {
					if sp.Name == "*" || sub.Tag == sp.Name {
						out = append(out, sub)
					}
					walk(sub)
				}
			}
		}
		walk(c)
	case xquery.AxisAttribute:
		for _, a := range c.Attrs {
			if a.Name == sp.Name {
				out = append(out, AttrItem{Owner: tree.Nil, Name: a.Name, Value: a.Value})
			}
		}
	case xquery.AxisText:
		for _, ch := range c.Children {
			if s, ok := ch.(StrItem); ok {
				out = append(out, s)
			}
		}
	}
	return out
}

// dedupNodes removes duplicate stored nodes and restores document order;
// descendant steps from nested context nodes can produce both. Sequences
// containing constructed or atomic items pass through unchanged.
func dedupNodes(s Seq) Seq {
	nodes := true
	for _, it := range s {
		if _, ok := it.(NodeItem); !ok {
			nodes = false
			break
		}
	}
	if !nodes {
		return s
	}
	sort.Slice(s, func(i, j int) bool {
		return s[i].(NodeItem).ID < s[j].(NodeItem).ID
	})
	out := s[:0]
	var prev tree.NodeID = tree.Nil
	for _, it := range s {
		id := it.(NodeItem).ID
		if id != prev {
			out = append(out, it)
			prev = id
		}
	}
	return out
}

// ---- FLWOR ----

// tupleIter is the tuple stream between FLWOR clauses: the same pull
// discipline as Iterator, one environment per binding tuple.
type tupleIter interface {
	Next() (*bindings, bool)
}

type singleTupleIter struct {
	tp   *bindings
	done bool
}

func (s *singleTupleIter) Next() (*bindings, bool) {
	if s.done {
		return nil, false
	}
	s.done = true
	return s.tp, true
}

// buildTuples realizes the plan's tuple-operator chain as a pipeline of
// tuple iterators: the physical side of the FLWOR plan the optimizer
// shaped (clause order, join strategies, residual selections, sorting).
func (ev *evaluator) buildTuples(n *plan.Node, env *bindings) tupleIter {
	t := ev.buildTuplesNode(n, env)
	if ev.prof != nil && n.Op != plan.OpTupleSrc {
		if st := ev.prof.statsFor(n); st != nil {
			return &profTuple{in: t, st: st}
		}
	}
	return t
}

func (ev *evaluator) buildTuplesNode(n *plan.Node, env *bindings) tupleIter {
	switch n.Op {
	case plan.OpTupleSrc:
		return &singleTupleIter{tp: env}
	case plan.OpLet:
		l := &letTupleIter{ev: ev, in: ev.buildTuples(n.Input, env), name: n.Var, seq: n.Seq}
		// A count-only let binds its join's match count; batch size 1 keeps
		// materializing the match sequence through the tuple operators.
		if n.CountOnly && ev.batchSize > 1 {
			l.join = n.Seq.Input
		}
		return l
	case plan.OpFor:
		// Vectorized bindings come straight off the sequence's NodeID
		// batches; batch size 1 keeps the plain tuple expansion.
		if n.Vectorized && ev.batchSize > 1 {
			return &batchForTupleIter{ev: ev, in: ev.buildTuples(n.Input, env), node: n}
		}
		return &forTupleIter{ev: ev, in: ev.buildTuples(n.Input, env), name: n.Var, seq: n.Seq}
	case plan.OpNLJoin:
		// The vectorized theta join memoizes the inner side per session
		// and hoists the outer comparison operand per tuple; conjuncts it
		// cannot prove (and batch size 1) keep the for+where expansion.
		if n.Vectorized && ev.batchSize > 1 {
			if t := ev.newThetaJoinIter(ev.buildTuples(n.Input, env), n); t != nil {
				return t
			}
		}
		// The nested-loop join expands the clause and filters on the
		// consumed conjunct right after the binding.
		var t tupleIter = &forTupleIter{ev: ev, in: ev.buildTuples(n.Input, env), name: n.Var, seq: n.Seq}
		return &whereTupleIter{ev: ev, in: t, cond: n.Cond}
	case plan.OpHashJoin:
		return ev.newHashJoinIter(ev.buildTuples(n.Input, env), n)
	case plan.OpWhere:
		return &whereTupleIter{ev: ev, in: ev.buildTuples(n.Input, env), cond: n.Cond}
	case plan.OpOrderBy:
		// Order by is a pipeline breaker: materialize, sort, replay.
		return ev.sortTuples(ev.buildTuples(n.Input, env), n.Keys)
	}
	errf("unhandled tuple operator %v", n.Op)
	return nil
}

// letTupleIter extends each tuple with a let binding; the bound value is
// materialized so later references never re-evaluate it.
type letTupleIter struct {
	ev   *evaluator
	in   tupleIter
	name string
	seq  *plan.Node

	// join is the planned join of a count-only let (plan rule count-join),
	// nil for every other let: the binding is then the join's match count
	// for the tuple, asked of the join operator itself — built on the first
	// tuple, like the pipeline it stands in for — instead of the sequence
	// of its matches.
	join    *plan.Node
	counter matchCounter
}

// matchCounter is a join operator's count-only form: how many bindings it
// would emit for one outer tuple.
type matchCounter interface {
	countMatches(tp *bindings) int
}

// matchCount is the binding of a count-only let: the number of join matches
// standing in for the match sequence. The count-join rule proved every
// reference to the variable is count($v), so the value only ever reaches
// iterCount.
type matchCount int

func (matchCount) isItem() {}

func (l *letTupleIter) Next() (*bindings, bool) {
	tp, ok := l.in.Next()
	if !ok {
		return nil, false
	}
	if l.join != nil {
		if c, ok := l.countMatches(tp); ok {
			return tp.bind(l.name, Seq{matchCount(c)}), true
		}
	}
	return tp.bind(l.name, l.ev.eval(l.seq, tp)), true
}

// countMatches answers the tuple's match count from the join operator; ok
// is false (for this and every later tuple) when the join has no count-only
// form, and the let materializes after all.
func (l *letTupleIter) countMatches(tp *bindings) (int, bool) {
	ev := l.ev
	if l.counter == nil {
		switch l.join.Op {
		case plan.OpHashJoin:
			l.counter = ev.newHashJoinIter(nil, l.join)
		case plan.OpNLJoin:
			if t := ev.newThetaJoinIter(nil, l.join); t != nil {
				l.counter = t
			}
		}
		if l.counter == nil {
			l.join = nil
			return 0, false
		}
	}
	if ev.prof == nil {
		return l.counter.countMatches(tp), true
	}
	// EXPLAIN ANALYZE: the join never streams, so its counters are fed here —
	// the tuples it would have emitted and the time spent counting them.
	st := ev.prof.statsFor(l.join)
	start := time.Now()
	c := l.counter.countMatches(tp)
	st.ns += int64(time.Since(start))
	st.tuples += int64(c)
	return c, true
}

// forTupleIter expands each tuple by the items of the for sequence: the
// streaming nested loop of plain clause expansion.
type forTupleIter struct {
	ev    *evaluator
	in    tupleIter
	name  string
	seq   *plan.Node
	tp    *bindings
	items Iterator
}

func (f *forTupleIter) Next() (*bindings, bool) {
	for {
		if f.items != nil {
			if it, ok := f.items.Next(); ok {
				return f.tp.bind(f.name, Seq{it}), true
			}
			f.items = nil
		}
		tp, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		f.tp = tp
		f.items = f.ev.iter(f.seq, tp)
	}
}

// whereTupleIter drops tuples whose conjunct is false; the conjunct
// evaluates through the boolean fast path, which pulls at most two items
// of any stream it consults.
type whereTupleIter struct {
	ev   *evaluator
	in   tupleIter
	cond *plan.Node
}

func (w *whereTupleIter) Next() (*bindings, bool) {
	for {
		tp, ok := w.in.Next()
		if !ok {
			return nil, false
		}
		if w.ev.evalBool(w.cond, tp) {
			return tp, true
		}
	}
}

// sliceTupleIter replays a materialized tuple list (after a sort).
type sliceTupleIter struct {
	tuples []*bindings
	i      int
}

func (s *sliceTupleIter) Next() (*bindings, bool) {
	if s.i >= len(s.tuples) {
		return nil, false
	}
	tp := s.tuples[s.i]
	s.i++
	return tp, true
}

// flatMapTupleIter streams the return clause across the tuple stream.
type flatMapTupleIter struct {
	ev  *evaluator
	in  tupleIter
	ret *plan.Node
	cur Iterator
}

func (m *flatMapTupleIter) Next() (Item, bool) {
	for {
		if m.cur != nil {
			if v, ok := m.cur.Next(); ok {
				return v, true
			}
			m.cur = nil
		}
		tp, ok := m.in.Next()
		if !ok {
			return nil, false
		}
		m.cur = m.ev.iter(m.ret, tp)
	}
}

// sortTuples materializes the tuple stream and stable-sorts it by the
// order specs; empty keys sort first.
func (ev *evaluator) sortTuples(in tupleIter, order []plan.OrderKey) tupleIter {
	var tuples []*bindings
	for {
		tp, ok := in.Next()
		if !ok {
			break
		}
		tuples = append(tuples, tp)
	}
	type keyed struct {
		tp   *bindings
		keys []Item
	}
	ks := make([]keyed, len(tuples))
	for i, tp := range tuples {
		keys := make([]Item, len(order))
		for j, spec := range order {
			kseq := ev.atomizeSeq(ev.eval(spec.Key, tp))
			if len(kseq) > 0 {
				keys[j] = kseq[0]
			}
		}
		ks[i] = keyed{tp, keys}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, spec := range order {
			ka, kb := ks[a].keys[j], ks[b].keys[j]
			if spec.Descending {
				ka, kb = kb, ka
			}
			if orderLess(ka, kb) {
				return true
			}
			if orderLess(kb, ka) {
				return false
			}
		}
		return false
	})
	for i := range ks {
		tuples[i] = ks[i].tp
	}
	return &sliceTupleIter{tuples: tuples}
}

// orderLess compares order-by keys; empty keys sort first.
func orderLess(a, b Item) bool {
	if a == nil {
		return b != nil
	}
	if b == nil {
		return false
	}
	if an, ok := a.(NumItem); ok {
		if bn, ok2 := b.(NumItem); ok2 {
			return float64(an) < float64(bn)
		}
	}
	return itemString(a) < itemString(b)
}

// joinIndex is a memoized hash index over an independent for-sequence.
// Exactly one of byKey/byCode is set: the generic build keys by the
// atomized key's string form, the batch build over a dictionary-encoded
// store keys by int32 code (code equality is string equality within one
// store, so the two formats answer identically). A probe against a
// code-keyed index translates its key through the store's dictionary — a
// string the dictionary never interned equals no stored value.
type joinIndex struct {
	items  Seq
	byKey  map[string][]int
	byCode map[int32][]int
	coder  nodestore.AttrCoder
	// probe is the key plan evaluated per item; identity-checked so a
	// stale cache entry for a different plan never answers.
	probe *plan.Node
	// probeVar/probeTags/probeAttr describe the outer-side key when it is
	// itself an attribute path over a single variable (probeFast): the
	// probe then walks store primitives to a dictionary code and never
	// materializes a key string or enters the evaluator.
	probeVar  string
	probeTags []string
	probeAttr string
	probeFast bool
}

// lookup returns the build positions matching one atomized probe key,
// regardless of index format.
func (idx *joinIndex) lookup(k Item) []int {
	if idx.byCode != nil {
		c, ok := idx.coder.CodeOf(itemString(k))
		if !ok {
			return nil
		}
		return idx.byCode[c]
	}
	return idx.byKey[itemString(k)]
}

// hashJoinTupleIter expands tuples with a for-clause using an equality
// conjunct as a hash join: the index over the clause's independent
// sequence is built (and memoized) once, and each incoming tuple streams
// its matches.
type hashJoinTupleIter struct {
	ev   *evaluator
	in   tupleIter
	node *plan.Node
	idx  *joinIndex
	seen map[int]bool

	tp      *bindings
	matches []int
	mi      int
}

// newHashJoinIter executes the planned hash join. The index materializes
// the independent sequence — the hash table is a pipeline breaker by
// nature — and is memoized in the Session keyed by the join's plan node,
// so it is reused across evaluations within a run and, for a worker that
// keeps its Session, across executions.
func (ev *evaluator) newHashJoinIter(in tupleIter, n *plan.Node) *hashJoinTupleIter {
	if ev.sess.joinCache == nil {
		ev.sess.joinCache = make(map[*plan.Node]*joinIndex)
	}
	idx := ev.sess.joinCache[n]
	if idx == nil || idx.probe != n.Probe {
		if n.Vectorized && ev.batchSize > 1 {
			// The planned batch build: items fill from NodeID vectors, and
			// attribute-path keys over a dictionary-encoded store index by
			// int32 code instead of key string.
			idx = ev.newBatchJoinIndex(n)
		} else {
			items := ev.eval(n.Seq, &bindings{})
			idx = &joinIndex{items: items, byKey: make(map[string][]int), probe: n.Probe}
			for i, it := range items {
				envI := (&bindings{}).bind(n.Var, Seq{it})
				// An item whose key expression yields the same value twice
				// (e.g. two interests in one category) must be indexed once:
				// general comparison is existential, not multiplicative.
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
		ev.sess.joinCache[n] = idx
	}
	return &hashJoinTupleIter{ev: ev, in: in, node: n, idx: idx}
}

func (j *hashJoinTupleIter) Next() (*bindings, bool) {
	for {
		if j.mi < len(j.matches) {
			i := j.matches[j.mi]
			j.mi++
			return j.tp.bind(j.node.Var, Seq{j.idx.items[i]}), true
		}
		tp, ok := j.in.Next()
		if !ok {
			return nil, false
		}
		j.tp = tp
		j.matches = j.tupleMatches(tp)
		j.mi = 0
	}
}

// countMatches is the join's count-only form (plan rule count-join): the
// size of the tuple's match set, a bucket length for a single key.
func (j *hashJoinTupleIter) countMatches(tp *bindings) int {
	return len(j.tupleMatches(tp))
}

// tupleMatches probes the index with the tuple's outer-side keys and
// returns matched item positions in index order.
func (j *hashJoinTupleIter) tupleMatches(tp *bindings) []int {
	ev := j.ev
	if j.idx.probeFast {
		if m, ok := j.fastMatches(tp); ok {
			return m
		}
	}
	keys := ev.atomizeSeq(ev.eval(j.node.Build, tp))
	if len(keys) == 1 {
		return j.idx.lookup(keys[0])
	}
	// Multiple keys: existential semantics with per-tuple dedup. The seen
	// set is allocated on first use — single-key probes never pay for it.
	if j.seen == nil {
		j.seen = make(map[int]bool)
	}
	for k := range j.seen {
		delete(j.seen, k)
	}
	var matches []int
	for _, k := range keys {
		for _, i := range j.idx.lookup(k) {
			if !j.seen[i] {
				j.seen[i] = true
				matches = append(matches, i)
			}
		}
	}
	sort.Ints(matches)
	return matches
}

// ---- quantifiers ----

func (ev *evaluator) evalQuantified(n *plan.Node, env *bindings, i int) bool {
	q := n.Expr.(*xquery.Quantified)
	if i == len(q.Vars) {
		return ev.evalBool(n.Cond, env)
	}
	it := ev.iter(n.Kids[i], env)
	for {
		v, more := it.Next()
		if !more {
			break
		}
		ok := ev.evalQuantified(n, env.bind(q.Vars[i], Seq{v}), i+1)
		if q.Every && !ok {
			return false
		}
		if !q.Every && ok {
			// The satisfied witness ends the search; the rest of the
			// binding stream is never generated.
			return true
		}
	}
	return q.Every
}

// ---- binary operators ----

// evalBool computes the effective boolean value of plan node n without
// routing the single boolean through an iterator: the fast path under
// where clauses, predicates, quantifiers and conditions. For operators
// without a boolean shape it falls back to the streaming EBV, which pulls
// at most two items.
func (ev *evaluator) evalBool(n *plan.Node, env *bindings) bool {
	switch n.Op {
	case plan.OpBinary:
		b := n.Expr.(*xquery.Binary)
		switch b.Op {
		case xquery.OpOr:
			return ev.evalBool(n.Kids[0], env) || ev.evalBool(n.Kids[1], env)
		case xquery.OpAnd:
			return ev.evalBool(n.Kids[0], env) && ev.evalBool(n.Kids[1], env)
		case xquery.OpEq, xquery.OpNeq, xquery.OpLt, xquery.OpLe, xquery.OpGt, xquery.OpGe:
			return ev.generalCompare(n, env)
		case xquery.OpBefore, xquery.OpAfter:
			res, nonEmpty := ev.orderCompare(n, env)
			return nonEmpty && res
		}
	case plan.OpQuantified:
		return ev.evalQuantified(n, env, 0)
	case plan.OpIf:
		if ev.evalBool(n.Kids[0], env) {
			return ev.evalBool(n.Kids[1], env)
		}
		return ev.evalBool(n.Kids[2], env)
	case plan.OpCall:
		c := n.Expr.(*xquery.Call)
		if _, user := ev.funcs[c.Name]; !user {
			switch c.Name {
			case "not":
				ev.argc(c, 1)
				return !ev.evalBool(n.Kids[0], env)
			case "boolean":
				ev.argc(c, 1)
				return ev.evalBool(n.Kids[0], env)
			case "empty":
				ev.argc(c, 1)
				_, ok := ev.iter(n.Kids[0], env).Next()
				return !ok
			}
		}
	}
	return ev.effectiveBoolIter(ev.iter(n, env))
}

func (ev *evaluator) iterBinary(n *plan.Node, env *bindings) Iterator {
	b := n.Expr.(*xquery.Binary)
	switch b.Op {
	case xquery.OpOr, xquery.OpAnd:
		return one(BoolItem(ev.evalBool(n, env)))
	case xquery.OpBefore, xquery.OpAfter:
		res, nonEmpty := ev.orderCompare(n, env)
		if !nonEmpty {
			return emptyIter{}
		}
		return one(BoolItem(res))
	case xquery.OpAdd, xquery.OpSub, xquery.OpMul, xquery.OpDiv, xquery.OpMod:
		return ev.iterArithmetic(n, env)
	default:
		return one(BoolItem(ev.generalCompare(n, env)))
	}
}

// orderCompare implements "<<" and ">>": document order between two
// single nodes, the ordered-access primitive of Q4. nonEmpty is false
// when either operand is the empty sequence.
func (ev *evaluator) orderCompare(n *plan.Node, env *bindings) (res, nonEmpty bool) {
	b := n.Expr.(*xquery.Binary)
	l, lok := ev.iter(n.Kids[0], env).Next()
	r, rok := ev.iter(n.Kids[1], env).Next()
	if !lok || !rok {
		return false, false
	}
	ln, lnOK := nodeID(l)
	rn, rnOK := nodeID(r)
	if !lnOK || !rnOK {
		errf("operands of %s must be stored nodes", b.Op)
	}
	if b.Op == xquery.OpBefore {
		return ln < rn, true
	}
	return ln > rn, true
}

func nodeID(it Item) (tree.NodeID, bool) {
	switch v := it.(type) {
	case NodeItem:
		return v.ID, true
	case AttrItem:
		if v.Owner != tree.Nil {
			return v.Owner, true
		}
	}
	return tree.Nil, false
}

// firstTwo pulls at most two items from in: enough to distinguish empty,
// singleton and longer sequences.
func firstTwo(in Iterator) (first, second Item, n int) {
	first, ok := in.Next()
	if !ok {
		return nil, nil, 0
	}
	second, ok = in.Next()
	if !ok {
		return first, nil, 1
	}
	return first, second, 2
}

func (ev *evaluator) iterArithmetic(n *plan.Node, env *bindings) Iterator {
	b := n.Expr.(*xquery.Binary)
	l, _, ln := firstTwo(ev.iter(n.Kids[0], env))
	r, _, rn := firstTwo(ev.iter(n.Kids[1], env))
	if ln == 0 || rn == 0 {
		return emptyIter{}
	}
	if ln > 1 || rn > 1 {
		errf("arithmetic over a sequence of more than one item")
	}
	x, y := toNumber(ev.atomize(l)), toNumber(ev.atomize(r))
	var res float64
	switch b.Op {
	case xquery.OpAdd:
		res = x + y
	case xquery.OpSub:
		res = x - y
	case xquery.OpMul:
		res = x * y
	case xquery.OpDiv:
		res = x / y
	case xquery.OpMod:
		res = math.Mod(x, y)
	}
	return one(NumItem(res))
}

var cmpOpOf = map[xquery.BinOp]compareOp{
	xquery.OpEq: cmpEq, xquery.OpNeq: cmpNeq, xquery.OpLt: cmpLt,
	xquery.OpLe: cmpLe, xquery.OpGt: cmpGt, xquery.OpGe: cmpGe,
}

// generalCompare applies existential general-comparison semantics: the
// right side materializes, the left side streams and stops at the first
// matching pair.
func (ev *evaluator) generalCompare(n *plan.Node, env *bindings) bool {
	op := cmpOpOf[n.Expr.(*xquery.Binary).Op]
	r := ev.atomizeSeq(ev.eval(n.Kids[1], env))
	l := ev.iter(n.Kids[0], env)
	for {
		a, ok := l.Next()
		if !ok {
			return false
		}
		aa := ev.atomize(a)
		for _, c := range r {
			if compareAtomics(op, aa, c) {
				return true
			}
		}
	}
}

// ---- constructors ----

func (ev *evaluator) construct(n *plan.Node, env *bindings) *Constructed {
	c := n.Expr.(*xquery.ElementCtor)
	out := &Constructed{Tag: c.Tag}
	for ai, a := range c.Attrs {
		var val []byte
		for _, part := range n.CtorAttrs[ai] {
			if lit, ok := part.Expr.(*xquery.StringLit); ok && part.Op == plan.OpLiteral {
				val = append(val, lit.Val...)
				continue
			}
			it := ev.iter(part, env)
			for i := 0; ; i++ {
				v, ok := it.Next()
				if !ok {
					break
				}
				if i > 0 {
					val = append(val, ' ')
				}
				val = append(val, itemString(ev.atomize(v))...)
			}
		}
		out.Attrs = append(out.Attrs, tree.Attr{Name: a.Name, Value: string(val)})
	}
	for _, part := range n.Content {
		switch {
		case part.Op == plan.OpLiteral:
			if lit, ok := part.Expr.(*xquery.StringLit); ok {
				out.Children = append(out.Children, StrItem(lit.Val))
				continue
			}
		case part.Op == plan.OpCtor:
			out.Children = append(out.Children, ev.construct(part, env))
			continue
		case part.Vectorized && ev.batchSize > 1:
			// The vectorize rule marked this part: assemble its children
			// vector-at-a-time from the binding's NodeID batches instead of
			// one boxed item per Next dispatch.
			if kids, ok := ev.constructBatch(part, env, out.Children); ok {
				out.Children = kids
				continue
			}
		}
		it := ev.iter(part, env)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			out.Children = append(out.Children, ev.contentItem(v))
		}
	}
	return out
}

// contentItem adapts an evaluated item for inclusion in constructed
// content: atomics become text, attribute nodes become text (simplified),
// and nodes are kept by reference (serialization copies them).
func (ev *evaluator) contentItem(it Item) Item {
	switch v := it.(type) {
	case NumItem, BoolItem:
		return StrItem(itemString(v))
	case AttrItem:
		return StrItem(v.Value)
	default:
		return it
	}
}
