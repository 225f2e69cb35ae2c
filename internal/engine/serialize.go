package engine

import (
	"io"
	"strings"
	"time"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
)

// Serialize writes the query result sequence as XML-ish text to w: nodes
// are serialized as markup, adjacent atomic values are separated by a
// single space. Stored nodes are walked through the store interface, so
// result construction pays each architecture's own navigation costs —
// which is the point of Q10 ("the bulk of the work lies in the
// construction of the answer set").
func Serialize(w io.Writer, store nodestore.Store, s Seq) error {
	return SerializeIter(w, store, s.Iter())
}

// SerializeIter drains the result iterator into w, serializing each item
// as it is produced: the sink end of the streaming pipeline. Evaluation
// stops at the first write error.
func SerializeIter(w io.Writer, store nodestore.Store, in Iterator) error {
	iw := NewItemWriter(w, store)
	for {
		it, ok := in.Next()
		if !ok {
			return iw.Err()
		}
		if err := iw.WriteItem(it); err != nil {
			return err
		}
	}
}

// serializeResult is the sink of Prepared executions that serialize: it
// picks the serialization mode the planner chose for this run. Plans whose
// root the vectorize rule marked (and whose batch size admits batching)
// drain through the batch writer — append-only buffer, subtree-batch
// emission, session-recycled buffers; everything else keeps the
// item-at-a-time ItemWriter. Output is byte-identical either way. When the
// execution carries an EXPLAIN ANALYZE profile, the write time lands in
// the Serialize operator's own counter slot.
func (ev *evaluator) serializeResult(w io.Writer, root *plan.Node, it Iterator) error {
	var st *opStats
	if ev.prof != nil {
		st = ev.prof.statsFor(root)
	}
	if root.Vectorized && ev.batchSize > 1 {
		bw := newBatchItemWriter(w, ev.store, ev.sess)
		bw.st = st
		for {
			v, ok := it.Next()
			if !ok {
				return bw.Flush()
			}
			if err := bw.WriteItem(v); err != nil {
				bw.release()
				return err
			}
		}
	}
	iw := NewItemWriter(w, ev.store)
	iw.st = st
	for {
		v, ok := it.Next()
		if !ok {
			return iw.Err()
		}
		if err := iw.WriteItem(v); err != nil {
			return err
		}
	}
}

// ItemWriter serializes a result sequence one item at a time, keeping the
// adjacent-atomic separator state between calls so the concatenated output
// is byte-identical to SerializeIter over the same items. It is the sink
// for consumers that interleave their own logic — cancellation checks,
// flow control — with serialization, e.g. a service worker streaming a
// result while watching its request context.
type ItemWriter struct {
	sw         *errWriter
	store      nodestore.Store
	prevAtomic bool
	wrote      bool
	leadAtomic bool
	// st, when non-nil, accumulates the time spent serializing into the
	// Serialize operator's EXPLAIN ANALYZE counter slot.
	st *opStats
}

// NewItemWriter returns an ItemWriter over w for results of store.
func NewItemWriter(w io.Writer, store nodestore.Store) *ItemWriter {
	return &ItemWriter{sw: &errWriter{w: w}, store: store}
}

// WriteItem serializes one result item. After a write error every further
// call is a no-op returning the same error.
func (iw *ItemWriter) WriteItem(it Item) error {
	var start time.Time
	if iw.st != nil {
		start = time.Now()
	}
	sw, store := iw.sw, iw.store
	switch v := it.(type) {
	case StrItem, NumItem, BoolItem:
		if iw.prevAtomic {
			sw.str(" ")
		}
		sw.str(escapeText(itemString(it)))
		iw.prevAtomic = true
	case AttrItem:
		if iw.prevAtomic {
			sw.str(" ")
		}
		sw.str(escapeText(v.Value))
		iw.prevAtomic = true
	case NodeItem:
		if store.Kind(v.ID) == tree.Text {
			// Text nodes in a result sequence read like atomics:
			// separate adjacent values with a space.
			if iw.prevAtomic {
				sw.str(" ")
			}
			sw.str(escapeText(store.Text(v.ID)))
			iw.prevAtomic = true
			break
		}
		serializeStored(sw, store, v.ID)
		iw.prevAtomic = false
	case DocItem:
		serializeStored(sw, store, store.Root())
		iw.prevAtomic = false
	case *Constructed:
		serializeConstructed(sw, store, v)
		iw.prevAtomic = false
	}
	if !iw.wrote {
		iw.wrote, iw.leadAtomic = true, iw.prevAtomic
	}
	if iw.st != nil {
		iw.st.ns += int64(time.Since(start))
	}
	return sw.err
}

// Err returns the first write error, if any.
func (iw *ItemWriter) Err() error { return iw.sw.err }

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

// SerializeString renders the result sequence to a string.
func SerializeString(store nodestore.Store, s Seq) string {
	var b strings.Builder
	// strings.Builder writes never fail.
	_ = Serialize(&b, store, s)
	return b.String()
}

// batchFlushThreshold is the buffered byte count at which the batch writer
// flushes to the underlying writer: large enough that flushes amortize to
// nothing, small enough that a streaming consumer sees output in chunks.
const batchFlushThreshold = 32 << 10

// batchItemWriter is the vectorized serializer: an append-only []byte
// writer with the exact separator semantics of ItemWriter. Stored nodes
// emit whole subtrees through the store's subtree-batch capability
// (nodestore.SubtreeAppender — one pre-order range walk, interned
// tag/attribute bytes, escaping only on dirty spans) instead of the
// recursive per-node navigation of serializeStored; the buffer recycles
// through the Session so steady-state serialization allocates nothing.
// Output is byte-identical to ItemWriter over the same items.
type batchItemWriter struct {
	w     io.Writer
	store nodestore.Store
	sess  *Session
	// sub is the store's native subtree-batch capability, probed once per
	// writer; nil falls back to the generic pre-order range walk.
	sub        nodestore.SubtreeAppender
	buf        []byte
	err        error
	prevAtomic bool
	wrote      bool
	leadAtomic bool
	st         *opStats
}

func newBatchItemWriter(w io.Writer, store nodestore.Store, sess *Session) *batchItemWriter {
	sub, _ := store.(nodestore.SubtreeAppender)
	return &batchItemWriter{w: w, store: store, sess: sess, sub: sub, buf: sess.getSerBuf()}
}

// WriteItem appends one result item's serialization to the buffer,
// flushing when the threshold is reached.
func (bw *batchItemWriter) WriteItem(it Item) error {
	if bw.err != nil {
		return bw.err
	}
	var start time.Time
	if bw.st != nil {
		start = time.Now()
	}
	switch v := it.(type) {
	case StrItem, NumItem, BoolItem:
		if bw.prevAtomic {
			bw.buf = append(bw.buf, ' ')
		}
		bw.buf = tree.AppendEscapedText(bw.buf, itemString(it))
		bw.prevAtomic = true
	case AttrItem:
		if bw.prevAtomic {
			bw.buf = append(bw.buf, ' ')
		}
		bw.buf = tree.AppendEscapedText(bw.buf, v.Value)
		bw.prevAtomic = true
	case NodeItem:
		if bw.store.Kind(v.ID) == tree.Text {
			if bw.prevAtomic {
				bw.buf = append(bw.buf, ' ')
			}
			bw.buf = tree.AppendEscapedText(bw.buf, bw.store.Text(v.ID))
			bw.prevAtomic = true
			break
		}
		bw.appendStored(v.ID)
		bw.prevAtomic = false
	case DocItem:
		bw.appendStored(bw.store.Root())
		bw.prevAtomic = false
	case *Constructed:
		bw.appendConstructed(v)
		bw.prevAtomic = false
	}
	if !bw.wrote {
		bw.wrote, bw.leadAtomic = true, bw.prevAtomic
	}
	if bw.st != nil {
		bw.st.ns += int64(time.Since(start))
	}
	if len(bw.buf) >= batchFlushThreshold {
		bw.flushBuf()
	}
	return bw.err
}

// appendStored emits a stored node's whole subtree as one batch.
func (bw *batchItemWriter) appendStored(n tree.NodeID) {
	if bw.sub != nil {
		bw.buf = bw.sub.AppendSubtree(bw.buf, n)
		return
	}
	bw.buf = nodestore.AppendSubtreeRange(bw.buf, bw.store, n)
}

func (bw *batchItemWriter) appendConstructed(c *Constructed) {
	bw.buf = append(bw.buf, '<')
	bw.buf = append(bw.buf, c.Tag...)
	for _, a := range c.Attrs {
		bw.buf = append(bw.buf, ' ')
		bw.buf = append(bw.buf, a.Name...)
		bw.buf = append(bw.buf, '=', '"')
		bw.buf = tree.AppendEscapedAttr(bw.buf, a.Value)
		bw.buf = append(bw.buf, '"')
	}
	if len(c.Children) == 0 {
		bw.buf = append(bw.buf, '/', '>')
		return
	}
	bw.buf = append(bw.buf, '>')
	for _, ch := range c.Children {
		switch v := ch.(type) {
		case StrItem:
			bw.buf = tree.AppendEscapedText(bw.buf, string(v))
		case NumItem, BoolItem:
			bw.buf = tree.AppendEscapedText(bw.buf, itemString(v))
		case AttrItem:
			bw.buf = tree.AppendEscapedText(bw.buf, v.Value)
		case NodeItem:
			// Single text nodes — the dominant constructed-content shape
			// (Q10's field values, Q19's location text) — skip the
			// subtree-batch machinery: a range walk buys nothing for a
			// one-node subtree, and its setup (subtree-end probe, walk
			// state) costs more than the one text fetch it wraps.
			if bw.store.Kind(v.ID) == tree.Text {
				bw.buf = tree.AppendEscapedText(bw.buf, bw.store.Text(v.ID))
				break
			}
			bw.appendStored(v.ID)
		case *Constructed:
			bw.appendConstructed(v)
		}
	}
	bw.buf = append(bw.buf, '<', '/')
	bw.buf = append(bw.buf, c.Tag...)
	bw.buf = append(bw.buf, '>')
}

// flushBuf writes the buffered bytes and rewinds the buffer.
func (bw *batchItemWriter) flushBuf() {
	if bw.err != nil || len(bw.buf) == 0 {
		return
	}
	_, bw.err = bw.w.Write(bw.buf)
	bw.buf = bw.buf[:0]
}

// Flush writes any remaining buffered bytes and returns the buffer to the
// session's free list.
func (bw *batchItemWriter) Flush() error {
	bw.flushBuf()
	bw.release()
	return bw.err
}

// release hands the buffer back to the session without flushing: the error
// path's cleanup.
func (bw *batchItemWriter) release() {
	bw.sess.putSerBuf(bw.buf)
	bw.buf = nil
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func serializeStored(w *errWriter, store nodestore.Store, n tree.NodeID) {
	if store.Kind(n) == tree.Text {
		w.str(escapeText(store.Text(n)))
		return
	}
	tag := store.Tag(n)
	w.str("<")
	w.str(tag)
	for _, a := range store.Attrs(n) {
		w.str(" ")
		w.str(a.Name)
		w.str(`="`)
		w.str(escapeAttr(a.Value))
		w.str(`"`)
	}
	kids := store.Children(n, nil)
	if len(kids) == 0 {
		w.str("/>")
		return
	}
	w.str(">")
	for _, c := range kids {
		serializeStored(w, store, c)
	}
	w.str("</")
	w.str(tag)
	w.str(">")
}

func serializeConstructed(w *errWriter, store nodestore.Store, c *Constructed) {
	w.str("<")
	w.str(c.Tag)
	for _, a := range c.Attrs {
		w.str(" ")
		w.str(a.Name)
		w.str(`="`)
		w.str(escapeAttr(a.Value))
		w.str(`"`)
	}
	if len(c.Children) == 0 {
		w.str("/>")
		return
	}
	w.str(">")
	for _, ch := range c.Children {
		switch v := ch.(type) {
		case StrItem:
			w.str(escapeText(string(v)))
		case NumItem, BoolItem:
			w.str(escapeText(itemString(v)))
		case AttrItem:
			w.str(escapeText(v.Value))
		case NodeItem:
			serializeStored(w, store, v.ID)
		case *Constructed:
			serializeConstructed(w, store, v)
		}
	}
	w.str("</")
	w.str(c.Tag)
	w.str(">")
}

// escapeText returns s with text-content escaping applied. Clean strings
// (no escapable byte) return as-is with zero allocations; dirty strings
// escape through the span escaper — no per-call Replacer construction.
func escapeText(s string) string {
	if !tree.HasTextSpecials(s) {
		return s
	}
	return string(tree.AppendEscapedText(nil, s))
}

func escapeAttr(s string) string {
	if !tree.HasAttrSpecials(s) {
		return s
	}
	return string(tree.AppendEscapedAttr(nil, s))
}
