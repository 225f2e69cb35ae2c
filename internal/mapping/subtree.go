package mapping

import (
	"repro/internal/nodestore"
	"repro/internal/tree"
)

// AppendSubtree implements nodestore.Store natively for the edge
// heap: subtree rows are contiguous in bulkload (document) order, so the
// whole subtree is one range scan over the bound column vectors — no id
// index probes, no posting-list hops. Attribute rows sit directly behind
// their owner element's row and are consumed inline; tag and attribute
// names render from the per-symbol byte tables built at load, and
// dictionary-coded values append straight from the dictionary's interned
// strings without decoding through an intermediate copy.
func (s *Edge) AppendSubtree(dst []byte, n tree.NodeID) []byte {
	start, ok := s.rowOf(n)
	if !ok {
		return dst
	}
	if s.kinds[start] == rowText {
		return tree.AppendEscapedText(dst, s.value(start))
	}
	type open struct {
		end int64
		sym int32
	}
	var stackArr [64]open
	stack := stackArr[:0]
	stop := s.ends[start]
	dict := s.table.Dict()
	for i := start; i < len(s.ids); i++ {
		if s.kinds[i] == rowAttr {
			continue // consumed inline by its owner element below
		}
		id := s.ids[i]
		if id >= stop {
			break
		}
		for len(stack) > 0 && stack[len(stack)-1].end <= id {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			dst = append(dst, s.closeTags[top.sym]...)
		}
		if s.kinds[i] == rowText {
			dst = tree.AppendEscapedText(dst, s.value(i))
			continue
		}
		sym := int32(s.tags[i])
		dst = append(dst, s.openTags[sym]...)
		for j := i + 1; j < len(s.ids) && s.kinds[j] == rowAttr && s.parents[j] == id; j++ {
			dst = append(dst, s.attrPre[s.tags[j]]...)
			dst = tree.AppendEscapedAttr(dst, dict.Name(s.values[j]))
			dst = append(dst, '"')
		}
		end := s.ends[i]
		if end == id+1 {
			dst = append(dst, '/', '>')
			continue
		}
		dst = append(dst, '>')
		stack = append(stack, open{end: end, sym: sym})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dst = append(dst, s.closeTags[top.sym]...)
	}
	return dst
}

// AppendSubtree implements nodestore.Store for the path and
// inline mappings via the generic pre-order range walk. The win over the
// engine's recursive serialization is structural: the fragmenting mappings
// pay a catalog consultation and a multi-fragment merge for every Children
// call, while the range walk touches each node exactly once through the
// cheap per-node accessors and never materializes a child list.
func (s *Path) AppendSubtree(dst []byte, n tree.NodeID) []byte {
	return nodestore.AppendSubtreeRange(dst, s, n)
}
