package nodestore

import (
	"repro/internal/summary"
	"repro/internal/tree"
)

// DOMOptions select the optional access structures of a main-memory store.
// The paper's Systems D–F are all main-memory; they differ in what they
// keep beside the tree. D holds "a detailed structural summary"; E and F
// are plain main-memory engines with heuristic optimizers.
type DOMOptions struct {
	// Summary builds the strong DataGuide (System D).
	Summary bool
	// TagExtents builds per-tag element lists (inverted element index).
	TagExtents bool
	// AttrIndexes builds attribute value indexes (name, value) -> nodes.
	AttrIndexes bool
	// FilteredScans lets the store evaluate pushed-down value predicates
	// inside its extent scans (the filtered cursors over the extent
	// slices, with selection-vector batches); without it they decline.
	// The plain-traversal and embedded profiles keep it off: they
	// evaluate every predicate in the engine, like the originals.
	FilteredScans bool
}

// DOM is a main-memory store over the parsed document tree.
type DOM struct {
	TextIndexHolder
	name     string
	doc      *tree.Doc
	sum      *summary.Summary
	extents  map[string][]tree.NodeID
	attrIdx  map[string]map[string][]tree.NodeID
	filtered bool
}

// NewDOM wraps a parsed document as a Store with the given access
// structures.
func NewDOM(name string, doc *tree.Doc, opts DOMOptions) *DOM {
	d := &DOM{name: name, doc: doc, filtered: opts.FilteredScans}
	if opts.Summary {
		d.sum = summary.Build(doc)
	}
	if opts.TagExtents {
		d.extents = make(map[string][]tree.NodeID)
		for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
			if doc.Kind(n) == tree.Element {
				tag := doc.Tag(n)
				d.extents[tag] = append(d.extents[tag], n)
			}
		}
	}
	if opts.AttrIndexes {
		d.attrIdx = make(map[string]map[string][]tree.NodeID)
		for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
			for _, a := range doc.Attrs(n) {
				byVal := d.attrIdx[a.Name]
				if byVal == nil {
					byVal = make(map[string][]tree.NodeID)
					d.attrIdx[a.Name] = byVal
				}
				byVal[a.Value] = append(byVal[a.Value], n)
			}
		}
	}
	return d
}

// Doc exposes the underlying tree for serialization fast paths in tests.
func (d *DOM) Doc() *tree.Doc { return d.doc }

// AppendSubtree implements Store: the arena's pre-order range
// walk with pre-rendered tag tables, the tightest subtree emission any
// store can offer.
func (d *DOM) AppendSubtree(dst []byte, n tree.NodeID) []byte {
	return d.doc.AppendSubtree(dst, n)
}

// Name implements Store.
func (d *DOM) Name() string { return d.name }

// Root implements Store.
func (d *DOM) Root() tree.NodeID { return d.doc.Root() }

// Kind implements Store.
func (d *DOM) Kind(n tree.NodeID) tree.Kind { return d.doc.Kind(n) }

// Tag implements Store.
func (d *DOM) Tag(n tree.NodeID) string { return d.doc.Tag(n) }

// Text implements Store.
func (d *DOM) Text(n tree.NodeID) string { return d.doc.Text(n) }

// Parent implements Store.
func (d *DOM) Parent(n tree.NodeID) tree.NodeID { return d.doc.Parent(n) }

// Children implements Store.
func (d *DOM) Children(n tree.NodeID, buf []tree.NodeID) []tree.NodeID {
	return d.doc.Children(n, buf)
}

// ChildrenByTag implements Store.
func (d *DOM) ChildrenByTag(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	sym := d.doc.TagSymbol(tag)
	if sym < 0 {
		return buf
	}
	return d.doc.ChildElements(n, sym, buf)
}

// Attr implements Store.
func (d *DOM) Attr(n tree.NodeID, name string) (string, bool) { return d.doc.Attr(n, name) }

// Attrs implements Store.
func (d *DOM) Attrs(n tree.NodeID) []tree.Attr { return d.doc.Attrs(n) }

// StringValue implements Store.
func (d *DOM) StringValue(n tree.NodeID) string { return d.doc.StringValue(n) }

// SubtreeEnd implements Store.
func (d *DOM) SubtreeEnd(n tree.NodeID) tree.NodeID { return d.doc.SubtreeEnd(n) }

// Descendants implements Store. With a structural summary the lookup is
// extent intersection; with tag extents it is a range scan of the inverted
// list; otherwise it is a subtree traversal.
func (d *DOM) Descendants(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	if d.sum != nil {
		return d.sum.DescendantsOf(d.doc, n, tag, buf)
	}
	if d.extents != nil {
		return summary.ExtentWithin(d.extents[tag], n, d.doc.SubtreeEnd(n), buf)
	}
	sym := d.doc.TagSymbol(tag)
	if sym < 0 {
		return buf
	}
	return d.doc.DescendantElements(n, sym, buf)
}

// TagExtent implements Store.
func (d *DOM) TagExtent(tag string, buf []tree.NodeID) ([]tree.NodeID, bool) {
	if d.extents != nil {
		return append(buf, d.extents[tag]...), true
	}
	if d.sum != nil {
		return d.sum.DescendantsOf(d.doc, d.doc.Root(), tag, buf), true
	}
	return buf, false
}

// CountDescendants implements Store; only the summary answers it without
// materialization.
func (d *DOM) CountDescendants(n tree.NodeID, tag string) (int, bool) {
	if d.sum == nil {
		return 0, false
	}
	return d.sum.CountDescendantsOf(d.doc, n, tag), true
}

// PathExtent implements Store; only the summary can answer it.
func (d *DOM) PathExtent(path []string, buf []tree.NodeID) ([]tree.NodeID, bool) {
	if d.sum == nil {
		return buf, false
	}
	return append(buf, d.sum.Lookup(path...)...), true
}

// CountPath implements Store; only the summary can answer it.
func (d *DOM) CountPath(path []string) (int, bool) {
	if d.sum == nil {
		return 0, false
	}
	return d.sum.Count(path...), true
}

// TagCard implements Store: the inverted element index or the
// summary know extent sizes without materializing them.
func (d *DOM) TagCard(tag string) (int, bool) {
	if d.extents != nil {
		return len(d.extents[tag]), true
	}
	if d.sum != nil {
		return d.sum.CountDescendants(tag), true
	}
	return 0, false
}

// PathCard implements Store; only the summary keeps per-path
// statistics.
func (d *DOM) PathCard(path []string) (int, bool) {
	if d.sum == nil {
		return 0, false
	}
	return d.sum.Count(path...), true
}

// AttrLookup implements Store via the attribute value index.
func (d *DOM) AttrLookup(name, value string) ([]tree.NodeID, bool) {
	if d.attrIdx == nil {
		return nil, false
	}
	return d.attrIdx[name][value], true
}

// InlinedChildText implements Store; native tree stores have no inlining.
func (d *DOM) InlinedChildText(tree.NodeID, string) (string, bool, bool) {
	return "", false, false
}

// ChildrenCursor implements Store by walking the sibling links of the
// tree arena; no id slice is materialized.
func (d *DOM) ChildrenCursor(n tree.NodeID) Cursor {
	return &domChildCursor{doc: d.doc, next: d.doc.FirstChild(n), sym: -1, any: true}
}

// ChildrenByTagCursor implements Store.
func (d *DOM) ChildrenByTagCursor(n tree.NodeID, tag string) Cursor {
	sym := d.doc.TagSymbol(tag)
	if sym < 0 {
		return EmptyCursor{}
	}
	return &domChildCursor{doc: d.doc, next: d.doc.FirstChild(n), sym: sym}
}

// domChildCursor streams the children of one node. With any set it yields
// every child; otherwise only element children with the given tag symbol.
type domChildCursor struct {
	doc  *tree.Doc
	next tree.NodeID
	sym  int32
	any  bool
}

func (c *domChildCursor) Next() (tree.NodeID, bool) {
	for c.next != tree.Nil {
		id := c.next
		c.next = c.doc.NextSibling(id)
		if c.any || (c.doc.Kind(id) == tree.Element && c.doc.TagID(id) == c.sym) {
			return id, true
		}
	}
	return tree.Nil, false
}

// DescendantsCursor implements Store. With tag extents the cursor
// walks a binary-searched subslice of the inverted list in place; without
// them it is a streaming pre-order scan of the subtree range.
func (d *DOM) DescendantsCursor(n tree.NodeID, tag string) Cursor {
	if d.extents != nil && d.sum == nil {
		return NewSliceCursor(summary.Within(d.extents[tag], n, d.doc.SubtreeEnd(n)))
	}
	if d.sum != nil {
		// Summary extents for several paths may interleave; reuse the
		// merging slice method.
		return NewSliceCursor(d.sum.DescendantsOf(d.doc, n, tag, nil))
	}
	sym := d.doc.TagSymbol(tag)
	if sym < 0 {
		return EmptyCursor{}
	}
	return &domScanCursor{doc: d.doc, at: n + 1, end: d.doc.SubtreeEnd(n), sym: sym}
}

// domScanCursor streams the pre-order subtree range [at, end), yielding
// elements with the given tag symbol.
type domScanCursor struct {
	doc     *tree.Doc
	at, end tree.NodeID
	sym     int32
}

func (c *domScanCursor) Next() (tree.NodeID, bool) {
	for ; c.at < c.end; c.at++ {
		if c.doc.Kind(c.at) == tree.Element && c.doc.TagID(c.at) == c.sym {
			id := c.at
			c.at++
			return id, true
		}
	}
	return tree.Nil, false
}

// NextBatch implements BatchCursor: the pre-order range scan fills the
// whole vector in one tight loop over the arena instead of one virtual
// dispatch per matching element.
func (c *domScanCursor) NextBatch(dst []tree.NodeID) int {
	n := 0
	for ; c.at < c.end && n < len(dst); c.at++ {
		if c.doc.Kind(c.at) == tree.Element && c.doc.TagID(c.at) == c.sym {
			dst[n] = c.at
			n++
		}
	}
	return n
}

// PathExtentCursor implements Store; only the summary can answer it.
// The cursor walks the summary's extent in place without copying it.
func (d *DOM) PathExtentCursor(path []string) (Cursor, bool) {
	if d.sum == nil {
		return nil, false
	}
	return NewSliceCursor(d.sum.Lookup(path...)), true
}

// TagExtentPartitions implements Store: the inverted element
// list (or the summary's merged extent) splits into contiguous ranges in
// place.
func (d *DOM) TagExtentPartitions(tag string, k int) ([]Cursor, bool) {
	if d.extents != nil {
		return SliceCursors(SplitIDs(d.extents[tag], k)), true
	}
	ext, ok := d.TagExtent(tag, nil)
	if !ok {
		return nil, false
	}
	return SliceCursors(SplitIDs(ext, k)), true
}

// PathExtentPartitions implements Store; only the summary can
// answer it. The partitions slice the summary's extent without copying.
func (d *DOM) PathExtentPartitions(path []string, k int) ([]Cursor, bool) {
	if d.sum == nil {
		return nil, false
	}
	return SliceCursors(SplitIDs(d.sum.Lookup(path...), k)), true
}

// ChildrenByTagFilteredCursor implements Store when the
// profile enables in-scan filtering: the child list materializes as usual
// and the pushed-down predicates evaluate over it through the generic
// reference semantics, so rows a predicate rejects never surface into the
// engine's pipeline.
func (d *DOM) ChildrenByTagFilteredCursor(n tree.NodeID, tag string, fs []ValueFilter) (Cursor, bool) {
	if !d.filtered {
		return nil, false
	}
	return NewFilteredSliceCursor(d, d.ChildrenByTag(n, tag, nil), fs), true
}

// PathExtentFilteredCursor implements Store: the structural
// summary's extent slice streams through the pushed-down predicates
// (selection-vector batches), the main-memory counterpart of the path
// mapping's filtered fragment scan.
func (d *DOM) PathExtentFilteredCursor(path []string, fs []ValueFilter) (Cursor, bool) {
	if !d.filtered || d.sum == nil {
		return nil, false
	}
	return NewFilteredSliceCursor(d, d.sum.Lookup(path...), fs), true
}

// PathExtentFilteredPartitions implements Store: with in-scan
// filtering enabled, each partition applies every pushed-down predicate
// over its range of the summary's extent slice, exactly like the
// sequential PathExtentFilteredCursor; profiles without FilteredScans
// keep filtered scans sequential in the engine.
func (d *DOM) PathExtentFilteredPartitions(path []string, fs []ValueFilter, k int) ([]Cursor, bool) {
	if !d.filtered || d.sum == nil {
		return nil, false
	}
	ranges := SplitIDs(d.sum.Lookup(path...), k)
	parts := make([]Cursor, len(ranges))
	for i, ids := range ranges {
		parts[i] = NewFilteredSliceCursor(d, ids, fs)
	}
	return parts, true
}

// Stats implements Store.
func (d *DOM) Stats() Stats {
	doc := d.doc
	size := doc.TextHeap().SizeBytes() // text bytes + one 4-byte offset per node
	for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
		size += 28 // kind, tag, parent, next, first, end, attr bookkeeping
		for _, a := range doc.Attrs(n) {
			size += int64(len(a.Name)+len(a.Value)) + 32
		}
	}
	if d.extents != nil {
		for tag, ext := range d.extents {
			size += int64(len(tag)) + 16 + int64(len(ext))*4
		}
	}
	if d.sum != nil {
		for _, pi := range d.sum.Paths() {
			size += int64(len(pi.Path)) + 32 + int64(len(pi.Nodes))*4
		}
	}
	for name, byVal := range d.attrIdx {
		size += int64(len(name)) + 16
		for v, nodes := range byVal {
			size += int64(len(v)) + 16 + int64(len(nodes))*4
		}
	}
	return Stats{Name: d.name, SizeBytes: size, Tables: 0, Nodes: doc.Len()}
}
