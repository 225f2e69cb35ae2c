package engine

import (
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
	"repro/internal/xquery"
)

// bindings is a linked environment of variable bindings. Bound values are
// always materialized, so re-referencing a variable is safe and never
// re-evaluates its defining expression.
type bindings struct {
	name   string
	parent *bindings
	// The value takes one of three forms: a single stored node held as its
	// NodeID (isNode), never boxed unless a reference asks for the item; a
	// single item riding in one, so binding it is one allocation at most;
	// or any other sequence in val.
	val    Seq
	one    [1]Item
	node   tree.NodeID
	isNode bool
}

func (b *bindings) bind(name string, val Seq) *bindings {
	return &bindings{name: name, val: val, parent: b}
}

// noBindings is the empty environment.
var noBindings *bindings

// bindOne binds name to the one-item sequence (it).
func (b *bindings) bindOne(name string, it Item) *bindings {
	return b.bindRef(name, ref{item: it})
}

// bindRef binds name to the one-item sequence (r).
func (b *bindings) bindRef(name string, r ref) *bindings {
	e := &bindings{name: name, parent: b}
	e.setRef(r)
	return e
}

// setRef makes the one item r the binding's value: an unboxed stored node
// stays a NodeID, anything else is the item.
func (b *bindings) setRef(r ref) {
	if r.item == nil && r.name == "" && !r.text {
		b.node, b.isNode = r.id, true
		return
	}
	b.one[0] = r.box()
	b.val = b.one[:]
}

// bindEval binds name to the materialized value of n.
func (ev *evaluator) bindEval(b *bindings, name string, n *plan.Node, env *bindings) *bindings {
	r, s, single := ev.bindingValue(n, env)
	if single {
		return b.bindRef(name, r)
	}
	return b.bind(name, s)
}

// bindingValue materializes the value of n for a binding: a single item as
// a ref (single set), so a stored node stays unboxed, and any other value
// as a sequence.
func (ev *evaluator) bindingValue(n *plan.Node, env *bindings) (r ref, s Seq, single bool) {
	in := ev.iter(n, env)
	if v, ok := in.(*varIter); ok && !v.one {
		// Already materialized: bind without copying.
		return ref{}, materialize(in), false
	}
	first, ok := in.next()
	if !ok {
		return ref{}, nil, false
	}
	second, ok := in.next()
	if !ok {
		return first, nil, true
	}
	return ref{}, appendAll(Seq{first.box(), second.box()}, in), false
}

// find returns the binding of name.
func (b *bindings) find(name string) *bindings {
	if e := b.peek(name); e != nil {
		return e
	}
	errf("unbound variable $%s", name)
	return nil
}

// peek is find without the unbound-variable panic, for opportunistic fast
// paths that fall back to full evaluation when the binding is absent.
func (b *bindings) peek(name string) *bindings {
	for e := b; e != nil; e = e.parent {
		if e.name == name {
			return e
		}
	}
	return nil
}

// focus is the dynamic context of predicate evaluation. It is held by
// value in the evaluator so entering a predicate allocates nothing.
type focus struct {
	item ref
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
	// memo is the Prepared's (a private one under EXPLAIN ANALYZE).
	memo *memo
	// sess holds the run's mutable scratch: per-worker when the caller
	// supplies one, per-execution otherwise.
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
	// building counts the memo builds open on this evaluator, or on the
	// one whose gather spawned it: such an evaluator never waits for
	// another caller's build (see memoized).
	building int

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
			return ev.one(StrItem(v.Val))
		case *xquery.NumberLit:
			return ev.one(NumItem(v.Val))
		}
	case plan.OpVar:
		return ev.varIterOf(env.find(n.Var))
	case plan.OpContext:
		if !ev.hasFocus {
			errf("context item used outside a predicate")
		}
		// A stored context node reaches the steps below it unboxed.
		return ev.oneRef(ev.focus.item)
	case plan.OpRoot:
		return ev.one(DocItem{})
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
		return &flatMapTupleIter{ev: ev, in: ev.buildTuples(n.Input, env, false), ret: n.Ret}
	case plan.OpQuantified:
		return ev.one(BoolItem(ev.evalQuantified(n, env, 0)))
	case plan.OpIf:
		if ev.evalBool(n.Kids[0], env) {
			return ev.iter(n.Kids[1], env)
		}
		return ev.iter(n.Kids[2], env)
	case plan.OpBinary:
		return ev.iterBinary(n, env)
	case plan.OpUnary:
		r, ok := ev.first(n.Kids[0], env)
		if !ok {
			return emptyIter{}
		}
		a := ev.atomOf(r)
		return ev.one(NumItem(-a.num()))
	case plan.OpCall:
		return ev.iterCall(n, env)
	case plan.OpCount:
		return ev.iterCount(n, env)
	case plan.OpSequence:
		return &sequenceIter{ev: ev, items: n.Kids, env: env}
	case plan.OpCtor:
		return ev.one(ev.construct(n, env))
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

// varIter streams a materialized value: a variable's binding, a single
// item, or any sequence an operator had to materialize, recycled through
// the session. A Seq may be streamed any number of times, each by its own
// varIter. A single item (one set) is held as its ref, so a stored node
// bound as a NodeID or a context node streams unboxed.
type varIter struct {
	ev       *evaluator
	s        Seq
	i        int
	r        ref // the item when one is set
	one      bool
	released bool
}

func (ev *evaluator) newVarIter(s Seq) *varIter {
	free := ev.sess.varFree
	if n := len(free); n > 0 {
		v := free[n-1]
		ev.sess.varFree = free[:n-1]
		// Rebind ev: release dropped the previous execution's evaluator.
		v.ev, v.s, v.released = ev, s, false
		return v
	}
	return &varIter{ev: ev, s: s}
}

// one returns an iterator over a single item.
func (ev *evaluator) one(it Item) Iterator { return ev.oneRef(ref{item: it}) }

// oneRef returns an iterator over a single ref.
func (ev *evaluator) oneRef(r ref) *varIter {
	v := ev.newVarIter(nil)
	v.r, v.one = r, true
	return v
}

// varIterOf streams the value of binding b.
func (ev *evaluator) varIterOf(b *bindings) *varIter {
	if b.isNode {
		return ev.oneRef(ref{id: b.node})
	}
	return ev.newVarIter(b.val)
}

func (v *varIter) next() (ref, bool) {
	if v.one {
		if v.i == 0 {
			v.i = 1
			return v.r, true
		}
	} else if v.i < len(v.s) {
		it := v.s[v.i]
		v.i++
		return ref{item: it}, true
	}
	v.release()
	return ref{}, false
}

// remaining is how many items the iterator has yet to yield.
func (v *varIter) remaining() int {
	if v.one {
		return 1 - v.i
	}
	return len(v.s) - v.i
}

// rest returns the items not yet pulled as a sequence, without copying a
// materialized sequence.
func (v *varIter) rest() Seq {
	if !v.one {
		return v.s[v.i:]
	}
	if v.i == 0 {
		return Seq{v.r.box()}
	}
	return nil
}

// release is idempotent: a stray next after exhaustion must not insert
// the iterator into the free list twice (two pipelines would then share
// one object and interleave).
func (v *varIter) release() {
	if v.released {
		return
	}
	sess := v.ev.sess // drop ev: a Session must not pin a dropped Prepared's memo
	v.ev, v.s, v.i, v.r, v.one, v.released = nil, nil, 0, ref{}, false, true
	sess.varFree = append(sess.varFree, v)
}

// sequenceIter streams a comma sequence, building each part's pipeline
// only when the stream reaches it.
type sequenceIter struct {
	ev    *evaluator
	items []*plan.Node
	env   *bindings
	cur   Iterator
}

func (s *sequenceIter) next() (ref, bool) {
	for {
		if s.cur != nil {
			if r, ok := s.cur.next(); ok {
				return r, true
			}
			s.cur = nil
		}
		if len(s.items) == 0 {
			return ref{}, false
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
			// against the whole context, so the context drains here.
			// Contexts the probe cannot validate (non-monotone node sets)
			// fall back to navigation with the predicate.
			out, ok := ev.attrIndexStep(in, sp)
			switch {
			case ok:
				in = out
			case sp.Axis == xquery.AxisDescendant:
				in = ev.descendantStepIter(out, sp, env)
			default:
				in = ev.newStepIter(out, sp, env)
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
	var d *stepIter
	if n := len(free); n > 0 {
		d = free[n-1]
		ev.sess.stepFree = free[:n-1]
		// Rebind ev, not just the operands: release dropped the previous
		// execution's evaluator, whose store and funcs may be another
		// query's.
		d.ev, d.in, d.st, d.env = ev, in, sp, env
	} else {
		d = &stepIter{ev: ev, in: in, st: sp, env: env}
	}
	d.ft, d.ftOn = ev.stepFT(sp)
	return d
}

// release returns a stepIter to the evaluator's free list, once it is
// exhausted or its consumer dropped it. Iterators are single-use: next
// must not be called again after it has returned false, which is what
// makes self-recycling safe.
func (d *stepIter) release() {
	d.in, d.st, d.env = nil, nil, nil
	d.inner = nil
	d.pending, d.attrVal = false, ""
	d.bi, d.bn = 0, 0
	d.ft, d.ftOn = nil, false
	sess := d.ev.sess
	d.ev = nil // as in varIter.release
	sess.stepFree = append(sess.stepFree, d)
}

// stepIter streams a child, attribute or text step over the context
// stream. The candidates of each stored context node are gathered into a
// scratch buffer reused across context nodes (one relation probe or
// sibling walk per node) and filtered in place by the step predicates with
// per-context-node positions. Predicates the planner pushed down evaluate
// inside the store's filtered cursor instead; contexts the store cannot
// filter (constructed elements, the document node) evaluate them here.
//
// Stored nodes and attributes travel unboxed: the step pulls its contexts
// as refs and hands its own candidates on as refs, so a chain of steps
// boxes an item only where the item leaves the stream.
type stepIter struct {
	ev  *evaluator
	in  Iterator
	st  *plan.StepPlan
	env *bindings

	buf     []tree.NodeID // scratch candidates of the current stored node
	bi, bn  int
	pending bool // an attribute step's candidate: attrVal of owner
	owner   tree.NodeID
	attrVal string
	inner   Iterator // generic fallback for document/constructed contexts

	// ft is the full-text candidate set of the step's FT probes (ftOn set
	// when the store answered): candidates intersect before the predicates
	// run, so non-candidates never pay the contains() evaluation.
	ft   []tree.NodeID
	ftOn bool
}

func (d *stepIter) next() (ref, bool) {
	for {
		if d.bi < d.bn {
			id := d.buf[d.bi]
			d.bi++
			return ref{id: id}, true
		}
		if d.pending {
			d.pending = false
			return ref{id: d.owner, name: d.st.Name, val: d.attrVal}, true
		}
		if d.inner != nil {
			if r, ok := d.inner.next(); ok {
				return r, true
			}
			d.inner = nil
		}
		ctx, ok := d.in.next()
		if !ok {
			d.release()
			return ref{}, false
		}
		d.expand(ctx)
	}
}

// count drains the step and returns how many items it yields: the sum of
// the candidate buffer lengths, with no candidate ever boxed.
func (d *stepIter) count() int {
	total := 0
	for {
		total += d.bn - d.bi
		d.bi = d.bn
		if d.pending {
			total++
			d.pending = false
		}
		if d.inner != nil {
			total += drainCount(d.inner)
			d.inner = nil
		}
		ctx, ok := d.in.next()
		if !ok {
			d.release()
			return total
		}
		d.expand(ctx)
	}
}

// expand loads the candidates of one context item into the scratch buffer
// (stored nodes) or the fallback slots (everything else).
func (d *stepIter) expand(ctx ref) {
	ev, st := d.ev, d.st
	id, isNode := ctx.node()
	if !isNode {
		d.inner = ev.filterCandidates(ev.candidates(ctx.box(), st), st.AllPreds(), d.env)
		return
	}
	d.bi, d.bn = 0, 0
	if st.Axis == xquery.AxisAttribute {
		if v, ok := ev.store.Attr(id, st.Name); ok {
			if ev.opts.NaiveStrings {
				v = string(append([]byte(nil), v...))
			}
			for _, pred := range st.Preds {
				if !ev.predMatch(pred, d.env, ref{id: id, name: st.Name, val: v}, 1, 1) {
					return
				}
			}
			d.pending, d.owner, d.attrVal = true, id, v
		}
		return
	}
	d.buf = ev.appendStep(d.buf[:0], id, st, d.env)
	d.bn = len(d.buf)
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

// appendStep appends the candidates of one stored node for a child,
// text() or descendant step to buf, with the step's pushed-down filters
// applied and its other predicates not: the navigation the tuple step, the
// batch step and the vectorized constructor share.
func (ev *evaluator) appendStep(buf []tree.NodeID, id tree.NodeID, st *plan.StepPlan, env *bindings) []tree.NodeID {
	s, base := ev.store, len(buf)
	switch st.Axis {
	case xquery.AxisChild:
		switch {
		case st.Name == "*":
			return keepKind(s, s.Children(id, buf), base, tree.Element)
		case len(st.Filters) > 0:
			if cur, ok := s.ChildrenByTagFilteredCursor(id, st.Name, st.Filters); ok {
				return drainCursor(cur, buf)
			}
			// The store lost the capability the planner probed for
			// (cannot happen for planned pushdowns); evaluate the pushed
			// predicates here instead.
			buf = s.ChildrenByTag(id, st.Name, buf)
			return buf[:base+ev.filterIDs(buf[base:], st.Pushed, env)]
		}
		return s.ChildrenByTag(id, st.Name, buf)
	case xquery.AxisText:
		if txt, ok := s.(nodestore.TextChildLister); ok {
			return txt.TextChildren(id, buf)
		}
		return keepKind(s, s.Children(id, buf), base, tree.Text)
	case xquery.AxisDescendant:
		return drainCursor(s.DescendantsCursor(id, st.Name), buf)
	}
	return buf
}

// keepKind compacts buf[base:] in place to the ids of one node kind.
func keepKind(s nodestore.Store, buf []tree.NodeID, base int, k tree.Kind) []tree.NodeID {
	w := base
	for _, id := range buf[base:] {
		if s.Kind(id) == k {
			buf[w] = id
			w++
		}
	}
	return buf[:w]
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

// filterIDs applies the step predicates to a materialized candidate buffer
// in place and returns the surviving length. Positions are ranks within
// the buffer, and the buffer length is the context size, so positional
// predicates and last() see exactly the per-context-node semantics.
func (ev *evaluator) filterIDs(ids []tree.NodeID, preds []*plan.Node, env *bindings) int {
	n := len(ids)
	for _, pred := range preds {
		w := 0
		for i := 0; i < n; i++ {
			if ev.predMatch(pred, env, ref{id: ids[i]}, i+1, n) {
				ids[w] = ids[i]
				w++
			}
		}
		n = w
	}
	return n
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
		out = appendAll(out, ev.filterCandidates(cand, sp.Preds, env))
	}
	return ev.newVarIter(dedupNodes(out))
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

func (d *descStreamIter) next() (ref, bool) {
	for {
		if d.cur != nil {
			if r, ok := d.cur.next(); ok {
				return r, true
			}
			d.cur = nil
		}
		if d.i >= len(d.ctx) {
			return ref{}, false
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
// A stored context reaches it only for a descendant step: stepIter
// navigates child, text() and attribute steps of stored nodes itself.
func (ev *evaluator) candidates(it Item, sp *plan.StepPlan) Iterator {
	switch n := it.(type) {
	case NodeItem:
		return ev.storedDescendants(n, sp)
	case DocItem:
		return ev.docCandidates(sp)
	case *Constructed:
		return ev.newVarIter(ev.stepFromConstructed(n, sp))
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
			return ev.one(NodeItem{ID: root})
		}
		return emptyIter{}
	case xquery.AxisDescendant:
		rest := ev.storedDescendants(NodeItem{ID: root}, sp)
		if sp.Name == "*" || sp.Name == rootTag {
			return &concatIter{parts: []Iterator{ev.one(NodeItem{ID: root}), rest}}
		}
		return rest
	default:
		return emptyIter{}
	}
}

// storedDescendants streams a descendant step from a stored node, pulling
// from the store's cursor so no candidate id slice materializes.
func (ev *evaluator) storedDescendants(n NodeItem, sp *plan.StepPlan) Iterator {
	if sp.Axis != xquery.AxisDescendant {
		errf("unexpected %v step from a stored node", sp.Axis)
	}
	if sp.Name == "*" {
		return ev.newVarIter(ev.wildcardDescendants(n))
	}
	return &nodeCursorIter{cur: ev.store.DescendantsCursor(n.ID, sp.Name)}
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
	sess := d.ev.sess
	d.ev, d.in, d.st, d.inner = nil, nil, nil, nil // as in varIter.release
	sess.inlineFree = append(sess.inlineFree, d)
}

func (d *inlineTextIter) next() (ref, bool) {
	for {
		if d.inner != nil {
			if r, ok := d.inner.next(); ok {
				return r, true
			}
			d.inner = nil
		}
		ctx, ok := d.in.next()
		if !ok {
			d.release()
			return ref{}, false
		}
		if id, isNode := ctx.node(); isNode {
			v, present, supported := d.ev.store.InlinedChildText(id, d.st.Name)
			if supported {
				if present {
					return ref{val: v, text: true}, true
				}
				continue
			}
		}
		child := d.ev.newStepIter(d.ev.oneRef(ctx), d.st, nil)
		d.inner = d.ev.newStepIter(child, textStepPlan, nil)
	}
}

// attrIndexStep answers a child step with an attribute-equality predicate
// from the value index, draining the context stream in. ok is false when
// the store has no index or the context is not a document-ordered node
// set (parent membership is a binary search over it); the returned
// iterator then replays the whole context for navigation.
func (ev *evaluator) attrIndexStep(in Iterator, sp *plan.StepPlan) (Iterator, bool) {
	candidates, supported := ev.attrCandidates(sp)
	if !supported {
		return in, false
	}
	sess := ev.sess
	ids := sess.getBatchBuf(0)
	for {
		r, more := in.next()
		if !more {
			break
		}
		id, isNode := r.node()
		if !isNode || (len(ids) > 0 && id <= ids[len(ids)-1]) {
			ctx := make(Seq, 0, len(ids)+1)
			for _, id := range ids {
				ctx = append(ctx, NodeItem{ID: id})
			}
			ctx = appendAll(append(ctx, r.box()), in)
			sess.putBatchBuf(ids)
			return ev.newVarIter(ctx), false
		}
		ids = append(ids, id)
	}
	var out Seq
	for _, c := range candidates {
		if ev.store.Tag(c) != sp.Name {
			continue
		}
		if _, found := slices.BinarySearch(ids, ev.store.Parent(c)); found {
			out = append(out, NodeItem{ID: c})
		}
	}
	sess.putBatchBuf(ids)
	return ev.newVarIter(out), true
}

// attrCandidates is the store's index answer for an attribute-index step,
// memoized on the plan: it depends only on the store and the step's
// literal, and a step under a FLWOR probes once per tuple.
func (ev *evaluator) attrCandidates(sp *plan.StepPlan) ([]tree.NodeID, bool) {
	hit := memoized(ev, sp, false, func() attrHit {
		ids, supported := ev.store.AttrLookup(sp.IdxAttr, sp.IdxValue)
		return attrHit{ids, supported}
	})
	return hit.ids, hit.supported
}

// attrHit is one attribute-index lookup.
type attrHit struct {
	ids       []tree.NodeID
	supported bool
}

// stepFromConstructed applies one step to a constructed element. Stored
// nodes in its content (copies by reference) are its children too, so the
// child and descendant steps reach into them through the store.
func (ev *evaluator) stepFromConstructed(c *Constructed, sp *plan.StepPlan) Seq {
	s := ev.store
	var out Seq
	named := func(tag string) bool { return sp.Name == "*" || tag == sp.Name }
	switch sp.Axis {
	case xquery.AxisChild:
		for _, ch := range c.Children {
			switch v := ch.(type) {
			case *Constructed:
				if named(v.Tag) {
					out = append(out, v)
				}
			case NodeItem:
				if s.Kind(v.ID) == tree.Element && named(s.Tag(v.ID)) {
					out = append(out, v)
				}
			}
		}
	case xquery.AxisDescendant:
		var walk func(el *Constructed)
		walk = func(el *Constructed) {
			for _, ch := range el.Children {
				switch v := ch.(type) {
				case *Constructed:
					if named(v.Tag) {
						out = append(out, v)
					}
					walk(v)
				case NodeItem:
					if s.Kind(v.ID) != tree.Element {
						continue
					}
					if named(s.Tag(v.ID)) {
						out = append(out, v)
					}
					out = appendAll(out, ev.storedDescendants(v, sp))
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
			switch v := ch.(type) {
			case StrItem:
				out = append(out, v)
			case NodeItem:
				if s.Kind(v.ID) == tree.Text {
					out = append(out, v)
				}
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

// slot is the binding a for, let or join operator extends each tuple
// with. A tuple stream nothing retains is consumed one tuple at a time:
// the consumer is done with a tuple, and with every binding chained onto
// it downstream, before it pulls the next. There the operator rebinds one
// binding in place, and a tuple costs no allocation. Below an order by
// (fresh set) every tuple gets a binding of its own.
type slot struct {
	fresh bool
	b     *bindings
}

// take returns the binding that extends parent with name, value unset.
func (sl *slot) take(parent *bindings, name string) *bindings {
	b := sl.b
	if b == nil || sl.fresh {
		b = new(bindings)
		if !sl.fresh {
			sl.b = b
		}
	}
	*b = bindings{name: name, parent: parent}
	return b
}

// bind extends parent with name bound to the one item r.
func (sl *slot) bind(parent *bindings, name string, r ref) *bindings {
	b := sl.take(parent, name)
	b.setRef(r)
	return b
}

// bindSeq extends parent with name bound to the sequence s.
func (sl *slot) bindSeq(parent *bindings, name string, s Seq) *bindings {
	b := sl.take(parent, name)
	b.val = s
	return b
}

// buildTuples realizes the plan's tuple-operator chain as a pipeline of
// tuple iterators: the physical side of the FLWOR plan the optimizer
// shaped (clause order, join strategies, residual selections, sorting).
// retained is set below an order by, which keeps every tuple it pulls;
// everywhere else a consumer is done with a tuple before it pulls the
// next, so the binding operators rebind in place (see slot).
func (ev *evaluator) buildTuples(n *plan.Node, env *bindings, retained bool) tupleIter {
	t := ev.buildTuplesNode(n, env, retained)
	if ev.prof != nil && n.Op != plan.OpTupleSrc {
		if st := ev.prof.statsFor(n); st != nil {
			return &profTuple{in: t, st: st}
		}
	}
	return t
}

func (ev *evaluator) buildTuplesNode(n *plan.Node, env *bindings, retained bool) tupleIter {
	var in tupleIter
	switch n.Op {
	case plan.OpTupleSrc:
		return &singleTupleIter{tp: env}
	case plan.OpOrderBy:
		// Order by is a pipeline breaker: materialize, sort, replay.
		return ev.sortTuples(ev.buildTuples(n.Input, env, true), n.Keys)
	default:
		in = ev.buildTuples(n.Input, env, retained)
	}
	sl := slot{fresh: retained}
	switch n.Op {
	case plan.OpLet:
		l := &letTupleIter{ev: ev, in: in, name: n.Var, seq: n.Seq, slot: sl}
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
			return &batchForTupleIter{ev: ev, in: in, node: n, slot: sl}
		}
		return &forTupleIter{ev: ev, in: in, name: n.Var, seq: n.Seq, slot: sl}
	case plan.OpNLJoin:
		// The vectorized theta join memoizes the inner side on the plan
		// and hoists the outer comparison operand per tuple; conjuncts it
		// cannot prove (and batch size 1) keep the for+where expansion.
		if n.Vectorized && ev.batchSize > 1 {
			if t := ev.newThetaJoinIter(in, n); t != nil {
				t.slot = sl
				return t
			}
		}
		// The nested-loop join expands the clause and filters on the
		// consumed conjunct right after the binding.
		var t tupleIter = &forTupleIter{ev: ev, in: in, name: n.Var, seq: n.Seq, slot: sl}
		return &whereTupleIter{ev: ev, in: t, cond: n.Cond}
	case plan.OpHashJoin:
		j := ev.newHashJoinIter(in, n)
		j.slot = sl
		return j
	case plan.OpWhere:
		return &whereTupleIter{ev: ev, in: in, cond: n.Cond}
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
	slot    slot
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
			return l.slot.bind(tp, l.name, ref{item: matchCount(c)}), true
		}
	}
	r, s, single := l.ev.bindingValue(l.seq, tp)
	if single {
		return l.slot.bind(tp, l.name, r), true
	}
	return l.slot.bindSeq(tp, l.name, s), true
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
	slot  slot
}

func (f *forTupleIter) Next() (*bindings, bool) {
	for {
		if f.items != nil {
			if r, ok := f.items.next(); ok {
				return f.slot.bind(f.tp, f.name, r), true
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

func (m *flatMapTupleIter) next() (ref, bool) {
	for {
		if m.cur != nil {
			if r, ok := m.cur.next(); ok {
				return r, true
			}
			m.cur = nil
		}
		tp, ok := m.in.Next()
		if !ok {
			return ref{}, false
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

// orderLess compares order-by keys with XQuery's "empty least": the empty
// key sorts before NaN, and NaN before every other value. NaN must not
// fall through to the float comparison, where it is neither less nor
// greater than anything and the sort's order would be undefined.
func orderLess(a, b Item) bool {
	if a == nil {
		return b != nil
	}
	if b == nil {
		return false
	}
	if isNaN(a) {
		return !isNaN(b)
	}
	if isNaN(b) {
		return false
	}
	if an, ok := a.(NumItem); ok {
		if bn, ok2 := b.(NumItem); ok2 {
			return float64(an) < float64(bn)
		}
	}
	return itemString(a) < itemString(b)
}

// isNaN reports whether an order-by key is the number NaN.
func isNaN(it Item) bool {
	n, ok := it.(NumItem)
	return ok && math.IsNaN(float64(n))
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
	slot    slot
}

// newHashJoinIter executes the planned hash join. The index materializes
// the independent sequence — the hash table is a pipeline breaker by
// nature — and is memoized on the plan, so it is built once for the
// Prepared and shared by every evaluation and execution after that.
func (ev *evaluator) newHashJoinIter(in tupleIter, n *plan.Node) *hashJoinTupleIter {
	batch := n.Vectorized && ev.batchSize > 1
	idx := memoized(ev, n, batch, func() *joinIndex {
		if batch {
			// The planned batch build: items fill from NodeID vectors, and
			// attribute-path keys over a dictionary-encoded store index by
			// int32 code instead of key string.
			return ev.newBatchJoinIndex(n)
		}
		idx := &joinIndex{items: ev.eval(n.Seq, &bindings{})}
		ev.fillKeyIndex(idx, n)
		return idx
	})
	return &hashJoinTupleIter{ev: ev, in: in, node: n, idx: idx}
}

func (j *hashJoinTupleIter) Next() (*bindings, bool) {
	for {
		if j.mi < len(j.matches) {
			i := j.matches[j.mi]
			j.mi++
			return j.slot.bind(j.tp, j.node.Var, ref{item: j.idx.items[i]}), true
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
	return j.unionMatches(len(keys), func(k int) []int { return j.idx.lookup(keys[k]) })
}

// unionMatches merges the buckets of n keys with existential semantics:
// each position once, in ascending order like a single bucket. The seen
// set is allocated on first use, so single-key probes never pay for it.
func (j *hashJoinTupleIter) unionMatches(n int, bucket func(k int) []int) []int {
	if j.seen == nil {
		j.seen = make(map[int]bool)
	}
	clear(j.seen)
	var matches []int
	for k := 0; k < n; k++ {
		for _, i := range bucket(k) {
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
	// Each candidate is decided before the next is bound, so one binding
	// serves the whole range, rebound in place (the slot discipline).
	var sl slot
	for {
		v, more := it.next()
		if !more {
			break
		}
		ok := ev.evalQuantified(n, sl.bind(env, q.Vars[i], v), i+1)
		if q.Every != ok {
			// A counterexample (every) or the satisfied witness (some)
			// ends the search; the rest of the binding stream is never
			// generated.
			drop(it)
			return ok
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
				_, ok := ev.first(n.Kids[0], env)
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
		return ev.one(BoolItem(ev.evalBool(n, env)))
	case xquery.OpBefore, xquery.OpAfter:
		res, nonEmpty := ev.orderCompare(n, env)
		if !nonEmpty {
			return emptyIter{}
		}
		return ev.one(BoolItem(res))
	case xquery.OpAdd, xquery.OpSub, xquery.OpMul, xquery.OpDiv, xquery.OpMod:
		return ev.iterArithmetic(n, env)
	default:
		return ev.one(BoolItem(ev.generalCompare(n, env)))
	}
}

// orderCompare implements "<<" and ">>": document order between two
// single nodes, the ordered-access primitive of Q4. nonEmpty is false
// when either operand is the empty sequence.
func (ev *evaluator) orderCompare(n *plan.Node, env *bindings) (res, nonEmpty bool) {
	b := n.Expr.(*xquery.Binary)
	l, lok := ev.first(n.Kids[0], env)
	r, rok := ev.first(n.Kids[1], env)
	if !lok || !rok {
		return false, false
	}
	ln, lnOK := refOwner(l)
	rn, rnOK := refOwner(r)
	if !lnOK || !rnOK {
		errf("operands of %s must be stored nodes", b.Op)
	}
	if b.Op == xquery.OpBefore {
		return ln < rn, true
	}
	return ln > rn, true
}

// refOwner is the stored node a ref is or belongs to: the node itself, or
// a stored attribute's owner.
func refOwner(r ref) (tree.NodeID, bool) {
	if r.item == nil {
		return r.id, !r.text
	}
	switch v := r.item.(type) {
	case NodeItem:
		return v.ID, true
	case AttrItem:
		if v.Owner != tree.Nil {
			return v.Owner, true
		}
	}
	return tree.Nil, false
}

// first evaluates n and returns only its first item, as a ref; the rest of
// the stream is never generated, and its operators recycle.
func (ev *evaluator) first(n *plan.Node, env *bindings) (ref, bool) {
	in := ev.iter(n, env)
	r, ok := in.next()
	if ok {
		drop(in)
	}
	return r, ok
}

// firstTwo pulls at most two items from in: enough to distinguish empty,
// singleton and longer sequences. It returns the first as a ref.
func firstTwo(in Iterator) (first ref, n int) {
	first, ok := in.next()
	if !ok {
		return ref{}, 0
	}
	if _, ok = in.next(); !ok {
		return first, 1
	}
	return first, 2
}

// operandAtom evaluates one arithmetic operand to its single atom; cnt is
// 0 for the empty sequence and 2 for a longer one. A literal operand is
// read from the plan without an iterator.
func (ev *evaluator) operandAtom(n *plan.Node, env *bindings) (a atom, cnt int) {
	if lit, ok := literalAtom(n); ok {
		return lit, 1
	}
	in := ev.iter(n, env)
	r, cnt := firstTwo(in)
	switch cnt {
	case 0:
		return atom{}, 0
	case 2:
		drop(in)
		return atom{}, 2
	}
	return ev.atomOf(r), 1
}

func (ev *evaluator) iterArithmetic(n *plan.Node, env *bindings) Iterator {
	b := n.Expr.(*xquery.Binary)
	l, ln := ev.operandAtom(n.Kids[0], env)
	r, rn := ev.operandAtom(n.Kids[1], env)
	if ln == 0 || rn == 0 {
		return emptyIter{}
	}
	if ln > 1 || rn > 1 {
		errf("arithmetic over a sequence of more than one item")
	}
	x, y := l.num(), r.num()
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
	return ev.one(NumItem(res))
}

// literalAtom is the atom of a literal plan node, read from its Val; ok is
// false for every other node.
func literalAtom(n *plan.Node) (atom, bool) {
	if n.Op != plan.OpLiteral {
		return atom{}, false
	}
	switch v := n.Expr.(type) {
	case *xquery.StringLit:
		return strAtom(v.Val), true
	case *xquery.NumberLit:
		return numAtom(v.Val), true
	}
	return atom{}, false
}

// generalCompare applies existential general-comparison semantics through
// the comparison kernel. A literal operand on either side is one atom read
// from the plan and the other side streams as refs, stopping at the first
// match; otherwise the right side's atoms are pushed on the session's atom
// stack and the left side streams against them.
func (ev *evaluator) generalCompare(n *plan.Node, env *bindings) bool {
	op, _ := cmpOpOf(n.Expr.(*xquery.Binary).Op)
	if lit, ok := literalAtom(n.Kids[1]); ok {
		return ev.anyAtom(n.Kids[0], env, op, &lit, false)
	}
	if lit, ok := literalAtom(n.Kids[0]); ok {
		return ev.anyAtom(n.Kids[1], env, op, &lit, true)
	}
	sess := ev.sess
	base := len(sess.atoms)
	in := ev.iter(n.Kids[1], env)
	for {
		r, ok := in.next()
		if !ok {
			break
		}
		sess.atoms = append(sess.atoms, ev.atomOf(r))
	}
	// The left side may run comparisons of its own, which push above
	// base+k and may move the stack; index it afresh per comparison.
	k := len(sess.atoms) - base
	in = ev.iter(n.Kids[0], env)
	for {
		r, ok := in.next()
		if !ok {
			sess.atoms = sess.atoms[:base]
			return false
		}
		a := ev.atomOf(r)
		for i := 0; i < k; i++ {
			if compareAtoms(op, &a, &sess.atoms[base+i]) {
				drop(in)
				sess.atoms = sess.atoms[:base]
				return true
			}
		}
	}
}

// anyAtom reports whether some item of n compares op-true against the
// atom lit, which stands on the left when flip is set.
func (ev *evaluator) anyAtom(n *plan.Node, env *bindings, op compareOp, lit *atom, flip bool) bool {
	in := ev.iter(n, env)
	for {
		r, ok := in.next()
		if !ok {
			return false
		}
		a := ev.atomOf(r)
		var hit bool
		if flip {
			hit = compareAtoms(op, lit, &a)
		} else {
			hit = compareAtoms(op, &a, lit)
		}
		if hit {
			drop(in)
			return true
		}
	}
}

// ---- constructors ----

func (ev *evaluator) construct(n *plan.Node, env *bindings) *Constructed {
	c := n.Expr.(*xquery.ElementCtor)
	out := newConstructed(c.Tag, len(c.Attrs))
	for ai, a := range c.Attrs {
		out.Attrs[ai] = tree.Attr{Name: a.Name, Value: ev.attrValue(n.CtorAttrs[ai], env)}
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
		case ev.batchPart(part):
			// The vectorize rule marked this part: assemble its children
			// vector-at-a-time from the binding's NodeID batches instead of
			// one item per next dispatch.
			if kids, ok := ev.constructBatch(part, env, out.Children); ok {
				out.Children = kids
				continue
			}
		}
		it := ev.iter(part, env)
		for {
			r, ok := it.next()
			if !ok {
				break
			}
			out.Children = append(out.Children, ev.contentItem(r.box()))
		}
	}
	return out
}

// newConstructed allocates an element with nAttrs attribute slots. The
// common small element — at most one attribute, a first child — is one
// allocation: the attribute and the first child live beside the element,
// and only a second child moves the children to a slice of their own.
func newConstructed(tag string, nAttrs int) *Constructed {
	switch nAttrs {
	case 0:
		cell := &struct {
			c    Constructed
			kids [1]Item
		}{c: Constructed{Tag: tag}}
		cell.c.Children = cell.kids[:0]
		return &cell.c
	case 1:
		cell := &struct {
			c     Constructed
			attrs [1]tree.Attr
			kids  [1]Item
		}{c: Constructed{Tag: tag}}
		cell.c.Attrs, cell.c.Children = cell.attrs[:], cell.kids[:0]
		return &cell.c
	}
	return &Constructed{Tag: tag, Attrs: make([]tree.Attr, nAttrs)}
}

// attrValue evaluates the parts of one constructor attribute's value: the
// literals and the atomized items of the enclosed expressions, items of
// one expression separated by a space. A value of a single piece is that
// piece's string itself — a stored text or attribute value is not copied.
func (ev *evaluator) attrValue(parts []*plan.Node, env *bindings) string {
	var v attrBuilder
	for _, part := range parts {
		if lit, ok := part.Expr.(*xquery.StringLit); ok && part.Op == plan.OpLiteral {
			v.add(lit.Val)
			continue
		}
		in := ev.iter(part, env)
		for i := 0; ; i++ {
			r, ok := in.next()
			if !ok {
				break
			}
			if i > 0 {
				v.add(" ")
			}
			a := ev.atomOf(r)
			v.add(a.str())
		}
	}
	return v.String()
}

// attrBuilder concatenates string pieces, copying only once there are two.
type attrBuilder struct {
	first  string
	buf    []byte
	pieces int
}

func (b *attrBuilder) add(s string) {
	switch b.pieces {
	case 0:
		b.first = s
	case 1:
		b.buf = append(append(b.buf, b.first...), s...)
	default:
		b.buf = append(b.buf, s...)
	}
	b.pieces++
}

func (b *attrBuilder) String() string {
	if b.pieces == 1 {
		return b.first
	}
	return string(b.buf)
}

// contentItem adapts an evaluated item for inclusion in constructed
// content: atomics become text, attribute nodes become text (simplified),
// the document node stands for the root element, and nodes are kept by
// reference (serialization copies them).
func (ev *evaluator) contentItem(it Item) Item {
	switch v := it.(type) {
	case NumItem, BoolItem:
		return StrItem(itemString(v))
	case AttrItem:
		return StrItem(v.Value)
	case DocItem:
		return NodeItem{ID: ev.store.Root()}
	default:
		return it
	}
}
