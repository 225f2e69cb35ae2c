package nodestore

import (
	"repro/internal/tree"
)

// TextChildLister is the text-step navigation capability: a store that
// can append the text-node children of n in document order without
// materializing (and kind-filtering) the full child list. The text()
// steps of the tuple evaluator and of the vectorized constructor probe for
// it — the per-element leaf probes of reconstruction queries and of value
// predicates — and fall back to Children plus a kind filter.
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
