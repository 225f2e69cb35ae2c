package engine

import (
	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
	"repro/internal/xquery"
)

// Iterator is the pull-based cursor over an item sequence: the engine's
// Volcano-style operator interface. Evaluation composes Iterators, so a
// consumer that stops pulling (an existential test, a serializer writing a
// bounded prefix) never pays for the rest of the sequence.
//
// Iterators are single-use and not safe for concurrent use; re-evaluating
// an expression yields a fresh Iterator, and Next must not be called again
// once it has returned false (exhausted operators may recycle themselves
// into the evaluator's free lists). Materialization happens only at the
// operators whose semantics require the whole sequence: sorting (order
// by, document-order restoration after descendant steps), duplicate
// elimination, last(), and variable binding.
type Iterator interface {
	// Next returns the next item and true, or nil and false when the
	// sequence is exhausted.
	Next() (Item, bool)
}

// Iter returns a fresh single-use iterator over the materialized sequence.
// A Seq may be iterated any number of times.
func (s Seq) Iter() Iterator { return &seqIter{s: s} }

type seqIter struct {
	s Seq
	i int
}

func (it *seqIter) Next() (Item, bool) {
	if it.i >= len(it.s) {
		return nil, false
	}
	v := it.s[it.i]
	it.i++
	return v, true
}

// materialize drains in into a Seq.
func materialize(in Iterator) Seq {
	// The common wrappers around already-materialized data unwrap without
	// copying.
	if si, ok := in.(*seqIter); ok && si.i == 0 {
		si.i = len(si.s)
		return si.s
	}
	if vi, ok := in.(*varIter); ok {
		s := vi.rest()
		vi.release()
		return s
	}
	var out Seq
	for {
		v, ok := in.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

type emptyIter struct{}

func (emptyIter) Next() (Item, bool) { return nil, false }

// ref is one item of a stream, handed over unboxed where the producer can:
// a stored node, an attribute of one, or an inlined text value. Converting
// a NodeItem, an AttrItem or a StrItem to an Item allocates, so consumers
// that only count, compare or navigate further pull refs and never pay
// for the box.
type ref struct {
	item Item        // the item when it is already boxed (any kind), else nil
	id   tree.NodeID // the stored node, or the attribute's owner
	name string      // the attribute's name; "" for a node or a text value
	val  string      // the attribute's value, or the text value
	text bool        // a text value (a StrItem) rather than a node
}

// box returns the ref as an Item, allocating only for the unboxed forms.
func (r ref) box() Item {
	switch {
	case r.item != nil:
		return r.item
	case r.text:
		return StrItem(r.val)
	case r.name != "":
		return AttrItem{Owner: r.id, Name: r.name, Value: r.val}
	}
	return NodeItem{ID: r.id}
}

// boxed is a nextRef result as a Next result.
func boxed(r ref, ok bool) (Item, bool) {
	if !ok {
		return nil, false
	}
	return r.box(), true
}

// node reports the stored node a ref designates, boxed or not.
func (r ref) node() (tree.NodeID, bool) {
	if r.item == nil {
		return r.id, r.name == "" && !r.text
	}
	n, ok := r.item.(NodeItem)
	return n.ID, ok
}

// refIterator is an Iterator that can also yield its items as refs. The
// operators that produce stored nodes implement it (path steps, variable
// and single-item streams, scan cursors, the batch adapter), and the
// counting, comparing and navigating consumers pull through it.
type refIterator interface {
	Iterator
	nextRef() (ref, bool)
}

// asRefs returns in's ref form, or nil when in only yields boxed items.
func asRefs(in Iterator) refIterator {
	ri, _ := in.(refIterator)
	return ri
}

// pullRef pulls the next item of in as a ref; ri is asRefs(in).
func pullRef(in Iterator, ri refIterator) (ref, bool) {
	if ri != nil {
		return ri.nextRef()
	}
	it, ok := in.Next()
	return ref{item: it}, ok
}

// atomOf atomizes one ref without boxing it: a stored node is its string
// value, an attribute or a text value its value.
func (ev *evaluator) atomOf(r ref) atom {
	switch {
	case r.item != nil:
		return ev.itemAtom(r.item)
	case r.text || r.name != "":
		return strAtom(r.val)
	}
	return strAtom(ev.stringValue(NodeItem{ID: r.id}))
}

// itemAtom is atomize into an atom: the same rules, without boxing the
// atomized value.
func (ev *evaluator) itemAtom(it Item) atom {
	switch v := it.(type) {
	case NodeItem:
		return strAtom(ev.stringValue(v))
	case AttrItem:
		return strAtom(v.Value)
	case DocItem, *Constructed:
		return atomicAtom(ev.atomize(v))
	}
	return atomicAtom(it)
}

// drop recycles an iterator its consumer stops pulling before exhaustion:
// an existential test that has its answer, or a scalar that needs only its
// first item. Only the consumer that built the iterator may drop it, and
// only while its last Next returned true (an exhausted operator has
// already recycled itself). Step operators drop their input chain with
// them; every other operator is left to the garbage collector.
func drop(it Iterator) {
	switch v := it.(type) {
	case *stepIter:
		in := v.in
		v.release()
		drop(in)
	case *inlineTextIter:
		in := v.in
		v.release()
		drop(in)
	case *varIter:
		v.release()
	case *singleIter:
		v.release()
	}
}

// one returns an iterator over a single item.
func (ev *evaluator) one(it Item) Iterator { return ev.oneRef(ref{item: it}) }

// oneRef returns an iterator over a single ref, recycled through the
// session like varIter.
func (ev *evaluator) oneRef(r ref) *singleIter {
	free := ev.sess.oneFree
	if n := len(free); n > 0 {
		s := free[n-1]
		ev.sess.oneFree = free[:n-1]
		s.sess, s.r, s.done, s.released = ev.sess, r, false, false
		return s
	}
	return &singleIter{sess: ev.sess, r: r}
}

type singleIter struct {
	sess     *Session
	r        ref
	done     bool
	released bool
}

func (s *singleIter) nextRef() (ref, bool) {
	if s.done {
		s.release()
		return ref{}, false
	}
	s.done = true
	return s.r, true
}

func (s *singleIter) Next() (Item, bool) {
	return boxed(s.nextRef())
}

// release is idempotent for the same reason as varIter.release.
func (s *singleIter) release() {
	if s.released {
		return
	}
	s.r, s.released = ref{}, true
	s.sess.oneFree = append(s.sess.oneFree, s)
}

// nodeCursorIter adapts a storage-layer node cursor to the item pipeline,
// yielding NodeItems.
type nodeCursorIter struct {
	cur nodestore.Cursor
}

func (c *nodeCursorIter) Next() (Item, bool) {
	id, ok := c.cur.Next()
	if !ok {
		return nil, false
	}
	return NodeItem{ID: id}, true
}

func (c *nodeCursorIter) nextRef() (ref, bool) {
	id, ok := c.cur.Next()
	return ref{id: id}, ok
}

// flatMapIter expands every item of outer through fn and streams the
// concatenation: the workhorse behind path steps and FLWOR return clauses.
type flatMapIter struct {
	outer Iterator
	fn    func(Item) Iterator
	inner Iterator
}

func (m *flatMapIter) Next() (Item, bool) {
	for {
		if m.inner != nil {
			if v, ok := m.inner.Next(); ok {
				return v, true
			}
			m.inner = nil
		}
		o, ok := m.outer.Next()
		if !ok {
			return nil, false
		}
		m.inner = m.fn(o)
	}
}

// concatIter streams several iterators back to back (comma sequences).
type concatIter struct {
	parts []Iterator
}

func (c *concatIter) Next() (Item, bool) {
	for len(c.parts) > 0 {
		if v, ok := c.parts[0].Next(); ok {
			return v, true
		}
		c.parts = c.parts[1:]
	}
	return nil, false
}

// predFilterIter applies one predicate to a streaming candidate sequence
// with positional semantics: position() is the candidate's 1-based rank in
// this iterator's input. The caller must have materialized the input
// instead when the predicate needs last() (the plan's UsesLast annotation).
type predFilterIter struct {
	ev   *evaluator
	in   Iterator
	pred *plan.Node
	env  *bindings
	pos  int
	size int // context size for last(); 0 when streaming without it
}

func (f *predFilterIter) Next() (Item, bool) {
	for {
		v, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		f.pos++
		if f.ev.predMatch(f.pred, f.env, ref{item: v}, f.pos, f.size) {
			return v, true
		}
	}
}

// predMatch evaluates one predicate for one candidate under the focus
// (item, pos, size); the candidate is a ref, so a stored node becomes the
// context item without being boxed. Boolean-shaped predicates
// (comparisons, logic, quantifiers) take an allocation-free fast path; for
// the rest, at most two items of the predicate's value are pulled — enough
// to distinguish a positional (single numeric) predicate from an
// effective-boolean one.
func (ev *evaluator) predMatch(pred *plan.Node, env *bindings, item ref, pos, size int) bool {
	// Literal positional predicates ([1], [last-ish constants]) and [last()]
	// need no evaluation at all.
	switch e := pred.Expr.(type) {
	case *xquery.NumberLit:
		return float64(pos) == e.Val
	case *xquery.Call:
		if e.Name == "last" && len(e.Args) == 0 && pred.Op == plan.OpCall && ev.funcs[e.Name] == nil {
			return pos == size
		}
	}
	saved, savedHas := ev.focus, ev.hasFocus
	ev.focus = focus{item: item, pos: pos, size: size}
	ev.hasFocus = true
	match := ev.predValue(pred, env, pos)
	// No defer: a panic abandons the evaluator, so restoring only on the
	// normal path is enough, and this runs per candidate.
	ev.focus, ev.hasFocus = saved, savedHas
	return match
}

// predValue computes one predicate decision under an installed focus. The
// boolean shape was decided at plan time (plan.Node.BoolShaped).
func (ev *evaluator) predValue(pred *plan.Node, env *bindings, pos int) bool {
	if pred.BoolShaped {
		return ev.evalBool(pred, env)
	}
	it := ev.iter(pred, env)
	ri := asRefs(it)
	first, ok := pullRef(it, ri)
	if !ok {
		return false
	}
	if _, more := pullRef(it, ri); !more {
		if num, isNum := first.item.(NumItem); isNum {
			return float64(pos) == float64(num)
		}
		return refBool(first)
	}
	// Two or more items: the sequence is non-empty, and for multi-item
	// sequences the effective boolean value is true regardless of the
	// remaining items (nodes are true, and the benchmark's EBV fallback
	// counts any non-empty sequence as true).
	drop(it)
	return true
}

// filterCandidates chains the step predicates over a candidate stream for
// one context item. Predicates that consult last() (per the plan's static
// UsesLast annotation) force the candidate set to materialize first so the
// context size is known; all others stream.
func (ev *evaluator) filterCandidates(in Iterator, preds []*plan.Node, env *bindings) Iterator {
	for _, pred := range preds {
		if pred.UsesLast {
			items := materialize(in)
			in = &predFilterIter{ev: ev, in: items.Iter(), pred: pred, env: env, size: len(items)}
		} else {
			in = &predFilterIter{ev: ev, in: in, pred: pred, env: env}
		}
	}
	return in
}

// effectiveBoolIter computes the effective boolean value of a streaming
// sequence, pulling at most two items.
func (ev *evaluator) effectiveBoolIter(in Iterator) bool {
	ri := asRefs(in)
	first, ok := pullRef(in, ri)
	if !ok {
		return false
	}
	if _, more := pullRef(in, ri); more {
		// Multi-item sequence: same fallback as itemBool documents.
		drop(in)
		return true
	}
	return refBool(first)
}

// refBool is the effective boolean value of a one-item sequence.
func refBool(r ref) bool {
	switch {
	case r.item != nil:
		return itemBool(r.item)
	case r.text:
		return r.val != ""
	}
	return true // a stored node or an attribute
}

// sortedNodeRun reports whether ctx is entirely stored nodes in
// non-decreasing document order: the precondition for streaming a
// descendant step without a sort-based duplicate elimination.
func sortedNodeRun(ctx Seq) bool {
	var prev tree.NodeID = tree.Nil
	for _, it := range ctx {
		n, ok := it.(NodeItem)
		if !ok {
			return false
		}
		if n.ID < prev {
			return false
		}
		prev = n.ID
	}
	return true
}
