package engine

import (
	"io"
	"strings"
	"time"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
)

// serializeResult is the sink of Prepared executions that serialize: it
// drains the result iterator through an ItemWriter, stopping at the first
// write error. Output is byte-identical at every batch size. When the
// execution carries an EXPLAIN ANALYZE profile, the write time lands in
// the Serialize operator's own counter slot.
func (ev *evaluator) serializeResult(w io.Writer, root *plan.Node, it Iterator) error {
	iw := NewItemWriter(w, ev.store)
	if ev.prof != nil {
		iw.st = ev.prof.statsFor(root)
	}
	for {
		r, ok := it.next()
		if !ok {
			return iw.Err()
		}
		if err := iw.WriteItem(r.box()); err != nil {
			return err
		}
	}
}

// ItemWriter is the result serializer: nodes are written as markup, and
// adjacent atomic values are separated by a single space. Each item is
// appended into one buffer the writer owns and reuses, and handed to the
// underlying writer before WriteItem returns, so a caller that reads w
// after any WriteItem sees every byte written so far. Stored elements emit
// whole subtrees through the store's AppendSubtree (one pre-order range
// walk, interned tag/attribute bytes, escaping only on dirty spans).
// Keeping the separator state between calls lets a
// caller interleave its own logic — cancellation checks, flow control —
// with serialization, e.g. a service worker streaming a result while
// watching its request context.
type ItemWriter struct {
	w          io.Writer
	store      nodestore.Store
	buf        []byte
	err        error
	prevAtomic bool
	wrote      bool
	leadAtomic bool
	// st, when non-nil, accumulates the time spent serializing into the
	// Serialize operator's EXPLAIN ANALYZE counter slot.
	st *opStats
}

// NewItemWriter returns an ItemWriter over w for results of store.
func NewItemWriter(w io.Writer, store nodestore.Store) *ItemWriter {
	return &ItemWriter{w: w, store: store}
}

// WriteItem serializes one result item. After a write error every further
// call is a no-op returning the same error.
func (iw *ItemWriter) WriteItem(it Item) error {
	if iw.err != nil {
		return iw.err
	}
	var start time.Time
	if iw.st != nil {
		start = time.Now()
	}
	iw.buf = iw.buf[:0]
	switch v := it.(type) {
	case StrItem, NumItem, BoolItem:
		iw.appendAtomic(itemString(it))
	case AttrItem:
		iw.appendAtomic(v.Value)
	case NodeItem:
		if iw.store.Kind(v.ID) == tree.Text {
			// Text nodes in a result sequence read like atomics:
			// separate adjacent values with a space.
			iw.appendAtomic(iw.store.Text(v.ID))
			break
		}
		iw.buf = iw.store.AppendSubtree(iw.buf, v.ID)
		iw.prevAtomic = false
	case DocItem:
		iw.buf = iw.store.AppendSubtree(iw.buf, iw.store.Root())
		iw.prevAtomic = false
	case *Constructed:
		iw.appendConstructed(v)
		iw.prevAtomic = false
	}
	if !iw.wrote {
		iw.wrote, iw.leadAtomic = true, iw.prevAtomic
	}
	if len(iw.buf) > 0 {
		_, iw.err = iw.w.Write(iw.buf)
	}
	if iw.st != nil {
		iw.st.ns += int64(time.Since(start))
	}
	return iw.err
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

func (iw *ItemWriter) appendConstructed(c *Constructed) {
	iw.buf = append(iw.buf, '<')
	iw.buf = append(iw.buf, c.Tag...)
	for _, a := range c.Attrs {
		iw.buf = append(iw.buf, ' ')
		iw.buf = append(iw.buf, a.Name...)
		iw.buf = append(iw.buf, '=', '"')
		iw.buf = tree.AppendEscapedAttr(iw.buf, a.Value)
		iw.buf = append(iw.buf, '"')
	}
	if len(c.Children) == 0 {
		iw.buf = append(iw.buf, '/', '>')
		return
	}
	iw.buf = append(iw.buf, '>')
	for _, ch := range c.Children {
		switch v := ch.(type) {
		case StrItem:
			iw.buf = tree.AppendEscapedText(iw.buf, string(v))
		case NumItem, BoolItem:
			iw.buf = tree.AppendEscapedText(iw.buf, itemString(v))
		case AttrItem:
			iw.buf = tree.AppendEscapedText(iw.buf, v.Value)
		case NodeItem:
			// Single text nodes — the dominant constructed-content shape
			// (Q10's field values, Q19's location text) — skip the
			// subtree-batch machinery: a range walk buys nothing for a
			// one-node subtree, and its setup (subtree-end probe, walk
			// state) costs more than the one text fetch it wraps.
			if iw.store.Kind(v.ID) == tree.Text {
				iw.buf = tree.AppendEscapedText(iw.buf, iw.store.Text(v.ID))
				break
			}
			iw.buf = iw.store.AppendSubtree(iw.buf, v.ID)
		case *Constructed:
			iw.appendConstructed(v)
		}
	}
	iw.buf = append(iw.buf, '<', '/')
	iw.buf = append(iw.buf, c.Tag...)
	iw.buf = append(iw.buf, '>')
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
