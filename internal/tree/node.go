package tree

// Len returns the number of nodes in the document.
func (d *Doc) Len() int { return len(d.kinds) }

// Root returns the document's root element.
func (d *Doc) Root() NodeID { return 0 }

// Kind returns the kind of node n.
func (d *Doc) Kind(n NodeID) Kind { return d.kinds[n] }

// TagID returns the symbol of the element's tag, or -1 for text nodes.
func (d *Doc) TagID(n NodeID) int32 { return d.tags[n] }

// Tag returns the element's tag name, or "" for text nodes.
func (d *Doc) Tag(n NodeID) string {
	t := d.tags[n]
	if t < 0 {
		return ""
	}
	return d.tagNames[t]
}

// TagSymbol resolves a tag name to its symbol, or -1 if the tag does not
// occur in the document.
func (d *Doc) TagSymbol(tag string) int32 {
	if id, ok := d.tagIDs[tag]; ok {
		return id
	}
	return -1
}

// TagCount returns the number of distinct tags in the document.
func (d *Doc) TagCount() int { return len(d.tagNames) }

// TagName returns the name of a tag symbol.
func (d *Doc) TagName(sym int32) string { return d.tagNames[sym] }

// Text returns the content of a text node, or "" for elements. The result
// aliases the text heap.
func (d *Doc) Text(n NodeID) string { return d.text.Span(n, n+1) }

// TextHeap returns the document's text heap, for stores that keep it after
// dropping the Doc.
func (d *Doc) TextHeap() TextHeap { return d.text }

// Parent returns the parent of n, or Nil for the root.
func (d *Doc) Parent(n NodeID) NodeID { return d.parent[n] }

// FirstChild returns the first child of n, or Nil.
func (d *Doc) FirstChild(n NodeID) NodeID { return d.first[n] }

// NextSibling returns the following sibling of n, or Nil.
func (d *Doc) NextSibling(n NodeID) NodeID { return d.next[n] }

// SubtreeEnd returns one past the last descendant of n: the subtree of n is
// exactly the NodeID range [n+1, SubtreeEnd(n)).
func (d *Doc) SubtreeEnd(n NodeID) NodeID { return d.end[n] }

// IsAncestor reports whether a is a proper ancestor of n, in O(1) via the
// containment encoding.
func (d *Doc) IsAncestor(a, n NodeID) bool { return a < n && n < d.end[a] }

// Attrs returns the attributes of n in document order. The returned slice
// aliases the document; callers must not modify it.
func (d *Doc) Attrs(n NodeID) []Attr {
	s := d.attrStart[n]
	return d.attrs[s : s+int32(d.attrLen[n])]
}

// AttrCount returns the number of attributes in the whole document.
func (d *Doc) AttrCount() int { return len(d.attrs) }

// FirstAttr returns the position of n's first attribute among all the
// document's attributes in document order: Attrs(n)[i] is attribute
// FirstAttr(n)+i of the document.
func (d *Doc) FirstAttr(n NodeID) int { return int(d.attrStart[n]) }

// Attr returns the value of the named attribute of n.
func (d *Doc) Attr(n NodeID, name string) (string, bool) {
	for _, a := range d.Attrs(n) {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Children appends the element and text children of n to buf and returns
// it.
func (d *Doc) Children(n NodeID, buf []NodeID) []NodeID {
	for c := d.first[n]; c != Nil; c = d.next[c] {
		buf = append(buf, c)
	}
	return buf
}

// ChildElements appends the element children of n with the given tag symbol
// (any element if sym < 0) to buf and returns it.
func (d *Doc) ChildElements(n NodeID, sym int32, buf []NodeID) []NodeID {
	for c := d.first[n]; c != Nil; c = d.next[c] {
		if d.kinds[c] == Element && (sym < 0 || d.tags[c] == sym) {
			buf = append(buf, c)
		}
	}
	return buf
}

// StringValue returns the concatenation of all text-node descendants of n
// (or the node's own text, for a text node): the XPath string value used by
// string() and contains() in Q14. It is one slice of the text heap — O(1),
// no allocation — and aliases it.
func (d *Doc) StringValue(n NodeID) string { return d.text.Span(n, d.end[n]) }

// DescendantElements appends every element in the subtree of n (excluding n
// itself) with the given tag symbol (any element if sym < 0) to buf.
func (d *Doc) DescendantElements(n NodeID, sym int32, buf []NodeID) []NodeID {
	for i := n + 1; i < d.end[n]; i++ {
		if d.kinds[i] == Element && (sym < 0 || d.tags[i] == sym) {
			buf = append(buf, i)
		}
	}
	return buf
}
