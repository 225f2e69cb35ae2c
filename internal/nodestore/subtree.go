package nodestore

import (
	"repro/internal/tree"
)

// SubtreeAppender is the subtree-batch serialization capability: a store
// that can emit a node's whole subtree as XML by walking its pre-order
// NodeID range once, instead of the engine recursing child-by-child
// through per-node navigation calls. The appended bytes must be
// byte-identical to the recursive serialization (open tag, attributes in
// document order, children, close tag; `/>` for childless elements;
// text/attribute values escaped like tree.AppendEscapedText/Attr). The
// engine's serializer probes for this interface and falls back to
// AppendSubtreeRange when a store does not provide it.
type SubtreeAppender interface {
	AppendSubtree(dst []byte, n tree.NodeID) []byte
}

// TextChildLister is the text-step navigation capability: a store that
// can append the text-node children of n in document order without
// materializing (and kind-filtering) the full child list. The vectorized
// constructor probes for it on text() steps — the per-element leaf probes
// of reconstruction queries — and falls back to Children plus a kind
// filter.
type TextChildLister interface {
	TextChildren(n tree.NodeID, buf []tree.NodeID) []tree.NodeID
}

// AppendSubtreeRange is the generic subtree-batch implementation over the
// plain Store interface: one pass over the pre-order range
// [n, SubtreeEnd(n)) with a containment stack for close tags. Stores
// whose per-node accessors are cheap but whose Children calls are
// expensive (the fragmenting path mapping merges every child list from
// multiple fragment relations) delegate their AppendSubtree to this walk
// and skip the merges entirely; stores with contiguous physical layouts
// implement tighter native walks instead.
func AppendSubtreeRange(dst []byte, st Store, n tree.NodeID) []byte {
	type open struct {
		end tree.NodeID
		tag string
	}
	var stackArr [64]open
	stack := stackArr[:0]
	stop := st.SubtreeEnd(n)
	for id := n; id < stop; id++ {
		for len(stack) > 0 && stack[len(stack)-1].end <= id {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			dst = append(dst, '<', '/')
			dst = append(dst, top.tag...)
			dst = append(dst, '>')
		}
		if st.Kind(id) == tree.Text {
			dst = tree.AppendEscapedText(dst, st.Text(id))
			continue
		}
		tag := st.Tag(id)
		dst = append(dst, '<')
		dst = append(dst, tag...)
		for _, a := range st.Attrs(id) {
			dst = append(dst, ' ')
			dst = append(dst, a.Name...)
			dst = append(dst, '=', '"')
			dst = tree.AppendEscapedAttr(dst, a.Value)
			dst = append(dst, '"')
		}
		end := st.SubtreeEnd(id)
		// Attributes are not nodes: an element is empty exactly when its
		// subtree extent holds only itself.
		if end == id+1 {
			dst = append(dst, '/', '>')
			continue
		}
		dst = append(dst, '>')
		stack = append(stack, open{end: end, tag: tag})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dst = append(dst, '<', '/')
		dst = append(dst, top.tag...)
		dst = append(dst, '>')
	}
	return dst
}
