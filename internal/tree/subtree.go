package tree

// AppendSubtree appends the XML serialization of the subtree rooted at n
// to dst and returns the extended buffer. It is the zero-copy subtree
// writer: instead of recursing child-by-child it walks the pre-order
// NodeID range [n, SubtreeEnd(n)) once over the arena columns, emitting
// open tags from the per-symbol pre-rendered tables and closing elements
// from a small containment stack (an element's close tag is due exactly
// when the walk passes its subtree end). The output is byte-identical to
// the recursive serializer; the walk allocates nothing beyond dst's
// growth for documents nested up to 64 deep (XMark nests ~12).
func (d *Doc) AppendSubtree(dst []byte, n NodeID) []byte {
	type open struct {
		end NodeID
		sym int32
	}
	var stackArr [64]open
	stack := stackArr[:0]
	stop := d.end[n]
	for id := n; id < stop; id++ {
		for len(stack) > 0 && stack[len(stack)-1].end <= id {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			dst = append(dst, d.closeTags[top.sym]...)
		}
		if d.kinds[id] == Text {
			dst = AppendEscapedText(dst, d.text.Span(id, id+1))
			continue
		}
		sym := d.tags[id]
		dst = append(dst, d.openTags[sym]...)
		s := d.attrStart[id]
		for _, a := range d.attrs[s : s+int32(d.attrLen[id])] {
			dst = append(dst, ' ')
			dst = append(dst, a.Name...)
			dst = append(dst, '=', '"')
			dst = AppendEscapedAttr(dst, a.Value)
			dst = append(dst, '"')
		}
		// Attributes are not nodes, so an element is empty exactly when
		// its subtree extent holds only itself.
		if d.end[id] == id+1 {
			dst = append(dst, '/', '>')
			continue
		}
		dst = append(dst, '>')
		stack = append(stack, open{end: d.end[id], sym: sym})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dst = append(dst, d.closeTags[top.sym]...)
	}
	return dst
}

// renderTagTables builds the per-symbol open/close tag byte tables the
// subtree writer emits from, so a repeated tag name costs one slice copy
// per occurrence instead of three writes. Called once at Builder.Doc();
// the tag dictionary is sealed after that.
func (d *Doc) renderTagTables() {
	d.openTags = make([][]byte, len(d.tagNames))
	d.closeTags = make([][]byte, len(d.tagNames))
	for sym, name := range d.tagNames {
		d.openTags[sym] = append([]byte{'<'}, name...)
		close := make([]byte, 0, len(name)+3)
		close = append(close, '<', '/')
		close = append(close, name...)
		d.closeTags[sym] = append(close, '>')
	}
}
