package engine

import (
	"io"
	"strings"
	"time"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
	"repro/internal/xquery"
)

// ItemWriter is the result serializer: nodes are written as markup, and
// adjacent atomic values are separated by a single space. Each item is
// appended into one buffer the writer owns and reuses, and handed to the
// underlying writer before the call that wrote it returns, so a caller
// that reads w after any item sees every byte written so far. Stored
// elements emit whole subtrees through the store's AppendSubtree (one
// pre-order range walk, interned tag/attribute bytes, escaping only on
// dirty spans).
//
// Items reach it two ways. WriteItem takes items one at a time, the way a
// StreamSession consumer holds them: a constructed element arrives as a
// *Constructed tree. Prepared.SerializeTo instead pushes the result into
// the writer: each element constructor writes its markup straight into
// the buffer while it evaluates, and no tree is built. Both emit element
// content through one switch (appendContent), so the two paths agree byte
// for byte. Keeping the separator state between items lets a caller
// interleave its own logic — cancellation checks, flow control — with
// serialization, e.g. a service worker whose writer watches its request
// context.
type ItemWriter struct {
	w          io.Writer
	store      nodestore.Store
	buf        []byte
	err        error
	prevAtomic bool
	wrote      bool
	leadAtomic bool
}

// NewItemWriter returns an ItemWriter over w for results of store.
func NewItemWriter(w io.Writer, store nodestore.Store) *ItemWriter {
	return &ItemWriter{w: w, store: store}
}

// WriteItem serializes one result item. After a write error every further
// call is a no-op returning the same error.
func (iw *ItemWriter) WriteItem(it Item) error { return iw.writeRef(ref{item: it}) }

// writeRef serializes one result item held as a ref, without boxing it.
func (iw *ItemWriter) writeRef(r ref) error {
	if iw.err != nil {
		return iw.err
	}
	iw.buf = iw.buf[:0]
	switch v := r.item.(type) {
	case nil:
		if r.text || r.name != "" {
			iw.appendAtomic(r.val)
		} else {
			iw.appendRootNode(r.id)
		}
	case StrItem, NumItem, BoolItem:
		iw.appendAtomic(itemString(v))
	case AttrItem:
		iw.appendAtomic(v.Value)
	case NodeItem:
		iw.appendRootNode(v.ID)
	case DocItem:
		iw.buf = iw.store.AppendSubtree(iw.buf, iw.store.Root())
		iw.prevAtomic = false
	case *Constructed:
		iw.appendConstructed(v)
		iw.prevAtomic = false
	}
	return iw.end()
}

// end hands the item in the buffer on to the underlying writer.
func (iw *ItemWriter) end() error {
	if !iw.wrote {
		iw.wrote, iw.leadAtomic = true, iw.prevAtomic
	}
	if len(iw.buf) > 0 {
		_, iw.err = iw.w.Write(iw.buf)
	}
	return iw.err
}

// appendRootNode appends a stored node that is a result item.
func (iw *ItemWriter) appendRootNode(id tree.NodeID) {
	if iw.store.Kind(id) == tree.Text {
		// Text nodes in a result sequence read like atomics: separate
		// adjacent values with a space.
		iw.appendAtomic(iw.store.Text(id))
		return
	}
	iw.buf = iw.store.AppendSubtree(iw.buf, id)
	iw.prevAtomic = false
}

// appendAtomic appends one atomic value's escaped text, preceded by the
// separator when the previous item was atomic too.
func (iw *ItemWriter) appendAtomic(s string) {
	if iw.prevAtomic {
		iw.buf = append(iw.buf, ' ')
	}
	iw.buf = tree.AppendEscapedText(iw.buf, s)
	iw.prevAtomic = true
}

// appendStart appends an element's start tag up to its closing '>'.
func (iw *ItemWriter) appendStart(tag string) {
	iw.buf = append(iw.buf, '<')
	iw.buf = append(iw.buf, tag...)
}

// appendAttr appends one attribute of an open start tag.
func (iw *ItemWriter) appendAttr(name, value string) {
	iw.buf = append(iw.buf, ' ')
	iw.buf = append(iw.buf, name...)
	iw.buf = append(iw.buf, '=', '"')
	iw.buf = tree.AppendEscapedAttr(iw.buf, value)
	iw.buf = append(iw.buf, '"')
}

// appendEnd closes an element whose start tag was appended at open (the
// offset just past its '>'): as the empty-element tag <t/> when no content
// item followed, else with the end tag.
func (iw *ItemWriter) appendEnd(tag string, open, items int) {
	if items == 0 {
		iw.buf = append(iw.buf[:open-1], '/', '>')
		return
	}
	iw.buf = append(iw.buf, '<', '/')
	iw.buf = append(iw.buf, tag...)
	iw.buf = append(iw.buf, '>')
}

func (iw *ItemWriter) appendConstructed(c *Constructed) {
	iw.appendStart(c.Tag)
	for _, a := range c.Attrs {
		iw.appendAttr(a.Name, a.Value)
	}
	iw.buf = append(iw.buf, '>')
	open := len(iw.buf)
	for _, ch := range c.Children {
		iw.appendContent(ref{item: ch})
	}
	iw.appendEnd(c.Tag, open, len(c.Children))
}

// appendContent appends one item of element content: the one
// child-emission switch of both constructor paths. Atomic values and
// attribute nodes become their escaped text, with no separator between
// adjacent ones; stored nodes and constructed elements become markup; the
// document node stands for the root element.
func (iw *ItemWriter) appendContent(r ref) {
	switch v := r.item.(type) {
	case nil:
		if r.text || r.name != "" {
			iw.buf = tree.AppendEscapedText(iw.buf, r.val)
		} else {
			iw.appendNode(r.id)
		}
	case StrItem:
		iw.buf = tree.AppendEscapedText(iw.buf, string(v))
	case NumItem, BoolItem:
		iw.buf = tree.AppendEscapedText(iw.buf, itemString(v))
	case AttrItem:
		iw.buf = tree.AppendEscapedText(iw.buf, v.Value)
	case NodeItem:
		iw.appendNode(v.ID)
	case DocItem:
		iw.buf = iw.store.AppendSubtree(iw.buf, iw.store.Root())
	case *Constructed:
		iw.appendConstructed(v)
	}
}

// appendNode appends a stored node in element content. Single text nodes —
// the dominant constructed-content shape (Q10's field values, Q19's
// location text) — skip the subtree-batch machinery: a range walk buys
// nothing for a one-node subtree, and its setup (subtree-end probe, walk
// state) costs more than the one text fetch it wraps.
func (iw *ItemWriter) appendNode(id tree.NodeID) {
	if iw.store.Kind(id) == tree.Text {
		iw.buf = tree.AppendEscapedText(iw.buf, iw.store.Text(id))
		return
	}
	iw.buf = iw.store.AppendSubtree(iw.buf, id)
}

// writeRun hands on a run of items another ItemWriter serialized (a gather
// morsel's), with the separator its first item needs after this writer's
// last. lead and tail say whether the run begins and ends atomic.
func (iw *ItemWriter) writeRun(run []byte, lead, tail bool) {
	if iw.err != nil {
		return
	}
	if iw.prevAtomic && lead {
		iw.buf = append(iw.buf[:0], ' ')
		if _, iw.err = iw.w.Write(iw.buf); iw.err != nil {
			return
		}
	}
	if !iw.wrote {
		iw.wrote, iw.leadAtomic = true, lead
	}
	iw.prevAtomic = tail
	if len(run) > 0 {
		_, iw.err = iw.w.Write(run)
	}
}

// Err returns the first write error, if any.
func (iw *ItemWriter) Err() error { return iw.err }

// LeadAtomic reports whether the first item written was atomic (false
// while nothing has been written). Together with TailAtomic it lets a
// result merger concatenate independently serialized sub-sequences
// byte-identically to one serialization pass: the single-space separator
// between adjacent atomics must be re-inserted exactly when one piece
// ends atomic and the next begins atomic — the shard coordinator's
// document-order concat merge.
func (iw *ItemWriter) LeadAtomic() bool { return iw.leadAtomic }

// TailAtomic reports whether the last item written so far was atomic
// (false while nothing has been written).
func (iw *ItemWriter) TailAtomic() bool { return iw.prevAtomic }

// SerializeString renders the result sequence s as text: nodes as markup,
// adjacent atomic values separated by a single space. Stored nodes are
// walked through the store interface, so result construction pays each
// architecture's own navigation costs — which is the point of Q10 ("the
// bulk of the work lies in the construction of the answer set").
func SerializeString(store nodestore.Store, s Seq) string {
	var b strings.Builder
	iw := NewItemWriter(&b, store)
	for _, it := range s {
		// strings.Builder writes never fail.
		_ = iw.WriteItem(it)
	}
	return b.String()
}

// ---- push emission ----

// push writes the items of plan node n into iw and returns how many it
// wrote: as result items when root is set (separated, each handed on as
// it completes), else as the content of the element constructor being
// written. Element constructors, FLWOR returns, comma sequences, string
// literals in content and BatchConstruct parts push their output; every
// other operator is pulled through its iterator and its refs written
// unboxed. Under EXPLAIN ANALYZE a tracked operator that pushes records
// the items it wrote and its inclusive time here; one that is pulled is
// counted by its iterator's profIter alone.
func (ev *evaluator) push(iw *ItemWriter, n *plan.Node, env *bindings, root bool) int {
	var st *opStats
	if ev.prof != nil {
		st = ev.prof.statsFor(n)
	}
	if st == nil {
		if c, ok := ev.pushNode(iw, n, env, root); ok {
			return c
		}
		return ev.pull(iw, n, env, root)
	}
	start := time.Now()
	c, ok := ev.pushNode(iw, n, env, root)
	// A batch part that fell back spent its attempt here; the pull that
	// follows adds its own time and rows.
	st.ns += int64(time.Since(start))
	if !ok {
		return ev.pull(iw, n, env, root)
	}
	st.rows += int64(c)
	return c
}

// pushNode pushes n's output when n is an operator that pushes; ok is
// false when it must be pulled instead.
func (ev *evaluator) pushNode(iw *ItemWriter, n *plan.Node, env *bindings, root bool) (int, bool) {
	switch n.Op {
	case plan.OpSerialize:
		return ev.push(iw, n.Input, env, root), true
	case plan.OpCtor:
		if !root {
			ev.pushCtor(iw, n, env)
			return 1, true
		}
		if iw.err != nil {
			return 0, true
		}
		iw.buf = iw.buf[:0]
		ev.pushCtor(iw, n, env)
		iw.prevAtomic = false
		iw.end()
		return 1, true
	case plan.OpProject:
		// A FLWOR pushes its return clause tuple by tuple; the tuple is
		// done with before the next is pulled, so bindings rebind in place.
		tuples := ev.buildTuples(n.Input, env, false)
		c := 0
		for iw.err == nil {
			tp, ok := tuples.Next()
			if !ok {
				break
			}
			c += ev.push(iw, n.Ret, tp, root)
		}
		return c, true
	case plan.OpSequence:
		c := 0
		for _, k := range n.Kids {
			c += ev.push(iw, k, env, root)
		}
		return c, true
	case plan.OpGather:
		if root {
			return ev.pushGather(iw, n, env), true
		}
	case plan.OpLiteral:
		if lit, ok := n.Expr.(*xquery.StringLit); ok && !root {
			iw.buf = tree.AppendEscapedText(iw.buf, lit.Val)
			return 1, true
		}
	case plan.OpNavigate:
		if !root && ev.batchPart(n) {
			return ev.pushBatchPart(iw, n, env)
		}
	}
	return 0, false
}

// pull writes the items of n's iterator into iw (see push).
func (ev *evaluator) pull(iw *ItemWriter, n *plan.Node, env *bindings, root bool) int {
	it := ev.iter(n, env)
	c := 0
	for {
		if root && iw.err != nil {
			drop(it)
			return c
		}
		r, ok := it.next()
		if !ok {
			return c
		}
		if root {
			iw.writeRef(r)
		} else {
			iw.appendContent(r)
		}
		c++
	}
}

// pushCtor writes one element constructor into the buffer: the start tag
// with its evaluated attributes, then each content part, then the end tag
// — or <t/> when the content yielded no item at all.
func (ev *evaluator) pushCtor(iw *ItemWriter, n *plan.Node, env *bindings) {
	c := n.Expr.(*xquery.ElementCtor)
	iw.appendStart(c.Tag)
	for ai, a := range c.Attrs {
		iw.appendAttr(a.Name, ev.attrValue(n.CtorAttrs[ai], env))
	}
	iw.buf = append(iw.buf, '>')
	open := len(iw.buf)
	items := 0
	for _, part := range n.Content {
		items += ev.push(iw, part, env, false)
	}
	iw.appendEnd(c.Tag, open, items)
}

// pushBatchPart writes a BatchConstruct content part from its NodeID
// vector; ok is false when the binding holds anything but stored nodes.
func (ev *evaluator) pushBatchPart(iw *ItemWriter, part *plan.Node, env *bindings) (int, bool) {
	ids, attr, ok := ev.ctorBatchIDs(part, env)
	if !ok {
		return 0, false
	}
	c := 0
	for _, id := range ids {
		if attr == nil {
			iw.appendNode(id)
			c++
		} else if v, ok := ev.ctorAttr(id, attr); ok {
			iw.buf = tree.AppendEscapedText(iw.buf, v)
			c++
		}
	}
	ev.sess.putBatchBuf(ids)
	return c, true
}

// pushGather runs an ordered Gather whose items are result items: each
// morsel pushes its share into a private writer, and the runs are copied
// out in partition order, which is document order. Without a partitioning
// the sub-pipeline pushes sequentially.
func (ev *evaluator) pushGather(iw *ItemWriter, n *plan.Node, env *bindings) int {
	parts, ok := ev.partitions(n.Scan, ev.degreeFor(n))
	if !ok {
		return ev.push(iw, n.Input, env, true)
	}
	g := ev.spawn(n, env, parts, writeItems)
	c := 0
	for i := range g.parts {
		p := &g.parts[i]
		<-p.done
		if p.err != nil {
			panic(p.err)
		}
		if p.count > 0 {
			iw.writeRun(p.run, p.lead, p.tail)
			c += p.count
		}
		if iw.err != nil {
			// stopGathers ends the morsels still running.
			break
		}
	}
	return c
}
