// Package mapping implements the XML-to-relational storage mappings of the
// paper's relational systems:
//
//   - Edge (System A): the whole document in one big heap relation, the
//     mapping of [20] ("stores all XML data on one big heap, i.e., only a
//     single relation"). Little metadata, every navigation is an index
//     probe into the one table.
//   - Path (System B): one relation per distinct root-to-node label path, a
//     "highly fragmenting mapping" in the Monet-XML style. More metadata,
//     direct access to full paths.
//   - Inline (System C): the DTD-derived schema of [23]: like Path, but
//     single-occurrence #PCDATA children and attributes are inlined as
//     columns of their parent's relation, removing navigation steps.
//
// All three implement nodestore.Store over tables of package relational, so
// the shared query engine runs on each and the cost differences the paper
// reports emerge from the physical layouts. The tables are column-major
// with dictionary-coded strings (relational.Dict), so navigation reads
// typed vectors and pushed-down equality predicates compare int codes.
package mapping

import (
	"sort"
	"strings"

	"repro/internal/nodestore"
	"repro/internal/relational"
	"repro/internal/tree"
)

// Row kinds in the edge table.
const (
	rowElement = 0
	rowText    = 1
	rowAttr    = 2
)

// Edge is the System A store: one heap relation
// edge(id, parent, end, tag, kind, value) plus indexes on id, parent, tag
// and value, built once the heap is loaded. Attributes are rows too, with
// synthetic ids.
type Edge struct {
	nodestore.TextIndexHolder
	table     *relational.Table
	idIdx     *relational.Index
	parentIdx *relational.Index
	tagIdx    *relational.Index
	valueIdx  *relational.Index

	// Column vectors of the one heap relation, bound once at load: every
	// navigation loop compares against these contiguous arrays instead of
	// materializing rows.
	ids     []int32
	parents []int32
	ends    []int32
	tags    []int32
	kinds   []int32
	values  []int32 // dictionary codes of the value column

	syms     map[string]int32
	symNames []string
	nNodes   int
	root     tree.NodeID

	// filters memoizes the pushed-down filter lists compiled against the
	// dictionary and the symbol table, one per plan step.
	filters filterMemo

	// text is the document's text heap, kept when the Doc is dropped: a
	// text segment clustered in document order beside the relation, which
	// answers StringValue as one span.
	text tree.TextHeap

	// Per-symbol byte renderings built once at load: openTags[sym] is
	// "<tag", closeTags[sym] "</tag>", attrPre[sym] ` name="` for "@name"
	// symbols. The subtree writer emits names as single slice copies.
	openTags  [][]byte
	closeTags [][]byte
	attrPre   [][]byte
}

// Columns of the edge table.
const (
	eID = iota
	eParent
	eEnd
	eTag
	eKind
	eValue
)

// NewEdge bulkloads the document into the edge mapping over a private
// value dictionary.
func NewEdge(doc *tree.Doc) *Edge { return NewEdgeOver(doc, NewValues(doc)) }

// NewEdgeOver bulkloads the document into the edge mapping, coding its
// value column against v, the values of doc.
func NewEdgeOver(doc *tree.Doc, v *Values) *Edge {
	s := &Edge{
		table: relational.NewTableShared("edge", relational.Schema{
			{Name: "id", T: relational.Node},
			{Name: "parent", T: relational.Node},
			{Name: "end", T: relational.Node},
			{Name: "tag", T: relational.Int},
			{Name: "kind", T: relational.Int},
			{Name: "value", T: relational.String},
		}, v.Dict),
		syms:   make(map[string]int32),
		nNodes: doc.Len(),
		root:   doc.Root(),
		text:   doc.TextHeap(),
	}
	// One row per node and per attribute: the columns are sized exactly
	// before the first Append, so the freeze has no slack to cut.
	s.table.Reserve(doc.Len() + doc.AttrCount())
	nextAttrID := int64(doc.Len())
	for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
		parent := int64(doc.Parent(n))
		if doc.Kind(n) == tree.Element {
			s.table.Append(
				relational.NodeVal(int64(n)),
				relational.NodeVal(parent),
				relational.NodeVal(int64(doc.SubtreeEnd(n))),
				relational.IntVal(int64(s.intern(doc.Tag(n)))),
				relational.IntVal(rowElement),
				relational.CodeVal(emptyCode),
			)
			for i, a := range doc.Attrs(n) {
				s.table.Append(
					relational.NodeVal(nextAttrID),
					relational.NodeVal(int64(n)),
					relational.NodeVal(nextAttrID+1),
					relational.IntVal(int64(s.intern("@"+a.Name))),
					relational.IntVal(rowAttr),
					v.attrCell(doc, n, i),
				)
				nextAttrID++
			}
		} else {
			s.table.Append(
				relational.NodeVal(int64(n)),
				relational.NodeVal(parent),
				relational.NodeVal(int64(n)+1),
				relational.IntVal(-1),
				relational.IntVal(rowText),
				v.nodeCell(n),
			)
		}
	}
	s.idIdx = s.table.CreateIndex(eID)
	s.parentIdx = s.table.CreateIndex(eParent)
	s.tagIdx = s.table.CreateIndex(eTag)
	s.valueIdx = s.table.CreateIndex(eValue)
	s.ids = s.table.IntCol(eID)
	s.parents = s.table.IntCol(eParent)
	s.ends = s.table.IntCol(eEnd)
	s.tags = s.table.IntCol(eTag)
	s.kinds = s.table.IntCol(eKind)
	s.values = s.table.CodeCol(eValue)
	s.renderSymTables()
	return s
}

// renderSymTables pre-renders every symbol's serialized spelling so the
// subtree writer appends interned bytes instead of rebuilding tag markup
// per node. Element and attribute symbols share one namespace but never
// collide: attribute symbols carry the "@" prefix.
func (s *Edge) renderSymTables() {
	s.openTags = make([][]byte, len(s.symNames))
	s.closeTags = make([][]byte, len(s.symNames))
	s.attrPre = make([][]byte, len(s.symNames))
	for sym, name := range s.symNames {
		if strings.HasPrefix(name, "@") {
			s.attrPre[sym] = []byte(` ` + name[1:] + `="`)
			continue
		}
		s.openTags[sym] = []byte("<" + name)
		s.closeTags[sym] = []byte("</" + name + ">")
	}
}

func (s *Edge) intern(name string) int32 {
	if id, ok := s.syms[name]; ok {
		return id
	}
	id := int32(len(s.symNames))
	s.symNames = append(s.symNames, name)
	s.syms[name] = id
	return id
}

func (s *Edge) sym(name string) int32 {
	if id, ok := s.syms[name]; ok {
		return id
	}
	return -1
}

// rowOf locates the heap row of node n via the id index: System A's
// signature cost, paid on every navigation step. Node and attribute ids
// are dense, so the probe is two dependent loads (directory, then row id).
func (s *Edge) rowOf(n tree.NodeID) (int, bool) {
	rows := s.idIdx.LookupInt(int64(n))
	if len(rows) == 0 {
		return 0, false
	}
	return int(rows[0]), true
}

// value decodes the value cell of one heap row.
func (s *Edge) value(row int) string { return s.table.Dict().Name(s.values[row]) }

// Dict returns the store's value dictionary.
func (s *Edge) Dict() *relational.Dict { return s.table.Dict() }

// Name implements nodestore.Store.
func (s *Edge) Name() string { return "edge" }

// Root implements nodestore.Store.
func (s *Edge) Root() tree.NodeID { return s.root }

// Kind implements nodestore.Store.
func (s *Edge) Kind(n tree.NodeID) tree.Kind {
	r, ok := s.rowOf(n)
	if !ok || s.kinds[r] == rowElement {
		return tree.Element
	}
	return tree.Text
}

// Tag implements nodestore.Store.
func (s *Edge) Tag(n tree.NodeID) string {
	r, ok := s.rowOf(n)
	if !ok || s.tags[r] < 0 {
		return ""
	}
	return s.symNames[s.tags[r]]
}

// Text implements nodestore.Store.
func (s *Edge) Text(n tree.NodeID) string {
	r, ok := s.rowOf(n)
	if !ok || s.kinds[r] != rowText {
		return ""
	}
	return s.value(r)
}

// Parent implements nodestore.Store.
func (s *Edge) Parent(n tree.NodeID) tree.NodeID {
	r, ok := s.rowOf(n)
	if !ok {
		return tree.Nil
	}
	return tree.NodeID(s.parents[r])
}

// Children implements nodestore.Store.
func (s *Edge) Children(n tree.NodeID, buf []tree.NodeID) []tree.NodeID {
	for _, row := range s.parentIdx.LookupInt(int64(n)) {
		if s.kinds[row] != rowAttr {
			buf = append(buf, tree.NodeID(s.ids[row]))
		}
	}
	return buf
}

// TextChildren implements nodestore.TextChildLister: the same single
// parent-index probe as Children, keeping only text rows.
func (s *Edge) TextChildren(n tree.NodeID, buf []tree.NodeID) []tree.NodeID {
	for _, row := range s.parentIdx.LookupInt(int64(n)) {
		if s.kinds[row] == rowText {
			buf = append(buf, tree.NodeID(s.ids[row]))
		}
	}
	return buf
}

// ChildrenByTag implements nodestore.Store.
func (s *Edge) ChildrenByTag(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	sym := s.sym(tag)
	if sym < 0 {
		return buf
	}
	for _, row := range s.parentIdx.LookupInt(int64(n)) {
		if s.kinds[row] == rowElement && s.tags[row] == sym {
			buf = append(buf, tree.NodeID(s.ids[row]))
		}
	}
	return buf
}

// Attr implements nodestore.Store.
func (s *Edge) Attr(n tree.NodeID, name string) (string, bool) {
	sym := s.sym("@" + name)
	if sym < 0 {
		return "", false
	}
	for _, row := range s.parentIdx.LookupInt(int64(n)) {
		if s.kinds[row] == rowAttr && s.tags[row] == sym {
			return s.value(int(row)), true
		}
	}
	return "", false
}

// AttrCode implements nodestore.AttrCoder: the dictionary code of the
// attribute's value, without decoding the string.
func (s *Edge) AttrCode(n tree.NodeID, name string) (int32, bool) {
	sym := s.sym("@" + name)
	if sym < 0 {
		return 0, false
	}
	for _, row := range s.parentIdx.LookupInt(int64(n)) {
		if s.kinds[row] == rowAttr && s.tags[row] == sym {
			return s.values[row], true
		}
	}
	return 0, false
}

// CodeOf implements nodestore.AttrCoder.
func (s *Edge) CodeOf(v string) (int32, bool) { return s.table.Dict().Code(v) }

// Attrs implements nodestore.Store.
func (s *Edge) Attrs(n tree.NodeID) []tree.Attr {
	var out []tree.Attr
	for _, row := range s.parentIdx.LookupInt(int64(n)) {
		if s.kinds[row] == rowAttr {
			out = append(out, tree.Attr{Name: s.symNames[s.tags[row]][1:], Value: s.value(int(row))})
		}
	}
	return out
}

// StringValue implements nodestore.Store: the id index finds the row, its
// end column closes the span, and the text heap is sliced — no row of the
// subtree is read.
func (s *Edge) StringValue(n tree.NodeID) string {
	r, ok := s.rowOf(n)
	if !ok {
		return ""
	}
	return s.text.Span(n, tree.NodeID(s.ends[r]))
}

// SubtreeEnd implements nodestore.Store.
func (s *Edge) SubtreeEnd(n tree.NodeID) tree.NodeID {
	r, ok := s.rowOf(n)
	if !ok {
		return n + 1
	}
	return tree.NodeID(s.ends[r])
}

// TagExtent implements nodestore.Store: the tag index yields all elements
// with the tag in document order (bulkload order).
func (s *Edge) TagExtent(tag string, buf []tree.NodeID) ([]tree.NodeID, bool) {
	sym := s.sym(tag)
	if sym < 0 {
		return buf, true
	}
	for _, row := range s.tagIdx.LookupInt(int64(sym)) {
		if s.kinds[row] == rowElement {
			buf = append(buf, tree.NodeID(s.ids[row]))
		}
	}
	return buf, true
}

// TagCard implements nodestore.Store: element tag syms are never
// shared with attribute ("@name") or text (-1) rows, so the posting-list
// length IS the extent size — a pure metadata read.
func (s *Edge) TagCard(tag string) (int, bool) {
	sym := s.sym(tag)
	if sym < 0 {
		return 0, true
	}
	return len(s.tagIdx.LookupInt(int64(sym))), true
}

// PathCard implements nodestore.Store: the heap keeps no path
// statistics.
func (s *Edge) PathCard([]string) (int, bool) { return 0, false }

// Descendants implements nodestore.Store: binary search of the tag extent
// against the subtree range, the containment-join strategy of [26].
func (s *Edge) Descendants(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	ext, _ := s.TagExtent(tag, nil)
	lo, hi := n, s.SubtreeEnd(n)
	i := sort.Search(len(ext), func(k int) bool { return ext[k] > lo })
	for ; i < len(ext) && ext[i] < hi; i++ {
		buf = append(buf, ext[i])
	}
	return buf
}

// PathExtent implements nodestore.Store: the heap has no path access path.
func (s *Edge) PathExtent([]string, []tree.NodeID) ([]tree.NodeID, bool) {
	return nil, false
}

// CountPath implements nodestore.Store: unsupported.
func (s *Edge) CountPath([]string) (int, bool) { return 0, false }

// CountDescendants implements nodestore.Store: the heap has no catalog to
// count from.
func (s *Edge) CountDescendants(tree.NodeID, string) (int, bool) { return 0, false }

// AttrLookup implements nodestore.Store via the heap's value index: probe
// by value, then filter the (shared) posting list down to attribute rows
// with the right name — the cost profile of an untyped one-relation store.
func (s *Edge) AttrLookup(name, value string) ([]tree.NodeID, bool) {
	sym := s.sym("@" + name)
	if sym < 0 {
		return nil, true
	}
	var out []tree.NodeID
	for _, row := range s.valueIdx.LookupString(value) {
		if s.kinds[row] == rowAttr && s.tags[row] == sym {
			out = append(out, tree.NodeID(s.parents[row]))
		}
	}
	return out, true
}

// InlinedChildText implements nodestore.Store: the heap inlines nothing.
func (s *Edge) InlinedChildText(tree.NodeID, string) (string, bool, bool) {
	return "", false, false
}

// edgePostingCursor streams the id column of a posting list, keeping rows
// whose kind (and optionally tag) columns match — a select-project over
// contiguous column vectors. wantTag < 0 accepts any tag; wantKind < 0
// accepts everything but attribute rows; cfs (optional) are pushed-down
// value predicates every kept row must satisfy.
type edgePostingCursor struct {
	s        *Edge
	rows     []int32
	wantKind int32
	wantTag  int32
	cfs      []codedFilter
}

func (c *edgePostingCursor) keep(row int32) bool {
	if c.wantKind < 0 {
		if c.s.kinds[row] == rowAttr {
			return false
		}
	} else {
		if c.s.kinds[row] != c.wantKind {
			return false
		}
		if c.wantTag >= 0 && c.s.tags[row] != c.wantTag {
			return false
		}
	}
	return len(c.cfs) == 0 || c.s.matchCoded(tree.NodeID(c.s.ids[row]), c.cfs)
}

func (c *edgePostingCursor) Next() (tree.NodeID, bool) {
	for len(c.rows) > 0 {
		row := c.rows[0]
		c.rows = c.rows[1:]
		if c.keep(row) {
			return tree.NodeID(c.s.ids[row]), true
		}
	}
	return tree.Nil, false
}

// NextBatch implements nodestore.BatchCursor: one loop over the posting
// list fills the vector, comparing the kind/tag columns in place.
func (c *edgePostingCursor) NextBatch(dst []tree.NodeID) int {
	n := 0
	for len(c.rows) > 0 && n < len(dst) {
		row := c.rows[0]
		c.rows = c.rows[1:]
		if c.keep(row) {
			dst[n] = tree.NodeID(c.s.ids[row])
			n++
		}
	}
	return n
}

// ChildrenCursor implements nodestore.Store: a streaming
// select-project over the parent index posting list, skipping attribute
// rows.
func (s *Edge) ChildrenCursor(n tree.NodeID) nodestore.Cursor {
	return &edgePostingCursor{s: s, rows: s.parentIdx.LookupInt(int64(n)), wantKind: -1, wantTag: -1}
}

// ChildrenByTagCursor implements nodestore.Store.
func (s *Edge) ChildrenByTagCursor(n tree.NodeID, tag string) nodestore.Cursor {
	sym := s.sym(tag)
	if sym < 0 {
		return nodestore.EmptyCursor{}
	}
	return &edgePostingCursor{s: s, rows: s.parentIdx.LookupInt(int64(n)), wantKind: rowElement, wantTag: sym}
}

// DescendantsCursor implements nodestore.Store: the tag index posting
// list is in document order, so the containment join of Descendants becomes
// a binary-searched range scan that streams row by row and stops at the
// subtree end.
func (s *Edge) DescendantsCursor(n tree.NodeID, tag string) nodestore.Cursor {
	sym := s.sym(tag)
	if sym < 0 {
		return nodestore.EmptyCursor{}
	}
	lo, hi := n, s.SubtreeEnd(n)
	rows := s.tagIdx.LookupInt(int64(sym))
	i := sort.Search(len(rows), func(k int) bool {
		return tree.NodeID(s.ids[rows[k]]) > lo
	})
	return &edgeRangeCursor{s: s, rows: rows[i:], hi: hi}
}

// edgeRangeCursor streams a document-order run of the tag index until the
// subtree end is passed.
type edgeRangeCursor struct {
	s    *Edge
	rows []int32
	hi   tree.NodeID
}

func (c *edgeRangeCursor) Next() (tree.NodeID, bool) {
	for len(c.rows) > 0 {
		row := c.rows[0]
		c.rows = c.rows[1:]
		id := tree.NodeID(c.s.ids[row])
		if id >= c.hi {
			c.rows = nil
			return tree.Nil, false
		}
		if c.s.kinds[row] == rowElement {
			return id, true
		}
	}
	return tree.Nil, false
}

// NextBatch implements nodestore.BatchCursor: the posting-list range fills
// a whole NodeID vector per call, projecting the id column row by row in
// one loop instead of one virtual dispatch per posting.
func (c *edgeRangeCursor) NextBatch(dst []tree.NodeID) int {
	n := 0
	for len(c.rows) > 0 && n < len(dst) {
		row := c.rows[0]
		c.rows = c.rows[1:]
		id := tree.NodeID(c.s.ids[row])
		if id >= c.hi {
			c.rows = nil
			break
		}
		if c.s.kinds[row] == rowElement {
			dst[n] = id
			n++
		}
	}
	return n
}

// PathExtentCursor implements nodestore.Store: the heap has no path
// access path.
func (s *Edge) PathExtentCursor([]string) (nodestore.Cursor, bool) { return nil, false }

// ChildrenByTagFilteredCursor implements nodestore.Store:
// pushed-down value predicates evaluate inside the posting-list select, so
// rows a predicate rejects never leave the heap relation. The predicates
// compile once per plan step against the dictionary and the symbol table:
// equality filters compare int codes against the value column and decode
// nothing, and no row probes the symbol map.
func (s *Edge) ChildrenByTagFilteredCursor(n tree.NodeID, tag string, fs []nodestore.ValueFilter) (nodestore.Cursor, bool) {
	sym := s.sym(tag)
	if sym < 0 {
		return nodestore.EmptyCursor{}, true
	}
	return &edgePostingCursor{
		s: s, rows: s.parentIdx.LookupInt(int64(n)),
		wantKind: rowElement, wantTag: sym, cfs: s.compiled(fs),
	}, true
}

// compiled returns fs compiled against the store, from the memo when a
// cursor of the same plan step compiled it before.
func (s *Edge) compiled(fs []nodestore.ValueFilter) []codedFilter {
	if cfs, ok := s.filters.lookup(fs); ok {
		return cfs
	}
	cfs := compileFilters(s.table.Dict(), fs)
	for i := range cfs {
		cf := &cfs[i]
		cf.childSym, cf.attrSym = -1, -1
		if cf.f.Child != "" {
			cf.childSym = s.sym(cf.f.Child)
		}
		if cf.f.Attr != "" {
			cf.attrSym = s.sym("@" + cf.f.Attr)
		}
	}
	s.filters.store(fs, cfs)
	return cfs
}

// matchCoded answers compiled pushed-down predicates from the heap:
// attribute filters probe the candidate's posting list for the attribute
// row, text filters scan it for a matching text child, and a Child
// component hops one more posting list to the named element children first.
func (s *Edge) matchCoded(n tree.NodeID, cfs []codedFilter) bool {
	for i := range cfs {
		if !s.matchCodedOne(n, &cfs[i]) {
			return false
		}
	}
	return true
}

func (s *Edge) matchCodedOne(n tree.NodeID, cf *codedFilter) bool {
	if cf.f.Child != "" {
		sym := cf.childSym
		if sym < 0 {
			return false
		}
		for _, row := range s.parentIdx.LookupInt(int64(n)) {
			if s.kinds[row] == rowElement && s.tags[row] == sym &&
				s.matchCodedValueAt(tree.NodeID(s.ids[row]), cf) {
				return true
			}
		}
		return false
	}
	return s.matchCodedValueAt(n, cf)
}

func (s *Edge) matchCodedValueAt(n tree.NodeID, cf *codedFilter) bool {
	if cf.f.Attr != "" {
		sym := cf.attrSym
		if sym < 0 {
			return false
		}
		for _, row := range s.parentIdx.LookupInt(int64(n)) {
			if s.kinds[row] == rowAttr && s.tags[row] == sym {
				return cf.matchCode(s.table.Dict(), s.values[row])
			}
		}
		return false
	}
	for _, row := range s.parentIdx.LookupInt(int64(n)) {
		if s.kinds[row] == rowText && cf.matchCode(s.table.Dict(), s.values[row]) {
			return true
		}
	}
	return false
}

// PathExtentFilteredCursor implements nodestore.Store: the
// heap has no path access path, filtered or not.
func (s *Edge) PathExtentFilteredCursor([]string, []nodestore.ValueFilter) (nodestore.Cursor, bool) {
	return nil, false
}

// TagExtentPartitions implements nodestore.Store: the tag index
// posting list is in bulkload (document) order, so a partition is a
// contiguous range of it, streamed row by row like DescendantsCursor.
func (s *Edge) TagExtentPartitions(tag string, k int) ([]nodestore.Cursor, bool) {
	sym := s.sym(tag)
	if sym < 0 {
		return nil, true // tag provably absent: zero partitions
	}
	rows := s.tagIdx.LookupInt(int64(sym))
	n := len(rows)
	if k > n {
		k = n
	}
	var parts []nodestore.Cursor
	for i := 0; i < k; i++ {
		parts = append(parts, &edgeRangeCursor{s: s, rows: rows[i*n/k : (i+1)*n/k], hi: tree.NodeID(s.nNodes)})
	}
	return parts, true
}

// PathExtentPartitions implements nodestore.Store: the heap has
// no path access path to split.
func (s *Edge) PathExtentPartitions([]string, int) ([]nodestore.Cursor, bool) {
	return nil, false
}

// PathExtentFilteredPartitions implements nodestore.Store:
// unsupported, like the unfiltered path scan.
func (s *Edge) PathExtentFilteredPartitions([]string, []nodestore.ValueFilter, int) ([]nodestore.Cursor, bool) {
	return nil, false
}

// Stats implements nodestore.Store.
func (s *Edge) Stats() nodestore.Stats {
	return nodestore.Stats{
		Name:      s.Name(),
		SizeBytes: s.table.SizeBytes() + s.table.Dict().SizeBytes() + s.text.SizeBytes(),
		Tables:    1,
		Nodes:     s.nNodes,
	}
}
