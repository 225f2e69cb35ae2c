package mapping

import (
	"slices"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/nodestore"
	"repro/internal/relational"
	"repro/internal/schema"
	"repro/internal/summary"
	"repro/internal/tree"
)

// textLabel is the catalog label of text-node tables.
const textLabel = "#text"

// Columns shared by every path table.
const (
	pID = iota
	pParent
	pEnd
	pOrd
	pValue
	pFixed // number of fixed columns; inlined columns follow
)

// pathTable is one fragment of the path mapping: all nodes with the same
// root label path.
type pathTable struct {
	path  string
	tag   string
	depth int
	idx   int // position in Path.entries

	table     *relational.Table
	parentIdx *relational.Index
	ids       []tree.NodeID // clustered id column, document order
	rows      int           // row count, from the first load walk

	children  []*pathTable
	attrs     map[string]*attrTable
	attrNames []string

	// Inlined columns (System C only): child tag or "@attr" name to the
	// pair (value column, presence column).
	inlined map[string][2]int
}

type attrTable struct {
	table    *relational.Table
	ownerIdx *relational.Index
	valueIdx *relational.Index
	rows     int // row count, from the first load walk
}

// Path is the fragmenting mapping (System B), and with inlining enabled the
// DTD-derived mapping (System C). All fragments and attribute tables code
// their values against one dictionary (the catalog's, see Values), so a
// string value carries the same code in every table of this store — which
// is what lets pushed-down equality predicates and batch join keys compare
// codes across fragments.
type Path struct {
	nodestore.TextIndexHolder
	name        string
	inline      bool
	dict        *relational.Dict
	catalog     map[string]*pathTable
	byTag       map[string][]*pathTable
	attrsByName map[string][]*attrTable
	entries     []*pathTable
	pathOf      []int32 // node id -> entry index
	rowIn       []int32 // node id -> row within that entry's table
	root        tree.NodeID
	nNodes      int
	// text is the document's text heap, kept when the Doc is dropped: a
	// text segment clustered in document order beside the fragments, so a
	// string value is one span however many fragments its text rows are
	// scattered over.
	text tree.TextHeap

	// filters memoizes the pushed-down filter lists compiled against the
	// dictionary, one per plan step.
	filters filterMemo
}

// NewPath bulkloads the document into the fragmenting path mapping
// (System B) over a private value dictionary.
func NewPath(doc *tree.Doc) *Path { return NewPathOver(doc, NewValues(doc)) }

// NewInline bulkloads the document into the DTD-derived inlined mapping
// (System C) over a private value dictionary.
func NewInline(doc *tree.Doc) *Path { return NewInlineOver(doc, NewValues(doc)) }

// NewPathOver is NewPath coding every value against v, the values of doc.
func NewPathOver(doc *tree.Doc, v *Values) *Path { return load(doc, v, false, "path") }

// NewInlineOver is NewInline coding every value against v, the values of
// doc.
func NewInlineOver(doc *tree.Doc, v *Values) *Path { return load(doc, v, true, "inline") }

func load(doc *tree.Doc, v *Values, inline bool, name string) *Path {
	s := &Path{
		name:        name,
		inline:      inline,
		dict:        v.Dict,
		catalog:     make(map[string]*pathTable),
		byTag:       make(map[string][]*pathTable),
		attrsByName: make(map[string][]*attrTable),
		pathOf:      make([]int32, doc.Len()),
		rowIn:       make([]int32, doc.Len()),
		root:        doc.Root(),
		nNodes:      doc.Len(),
		text:        doc.TextHeap(),
	}
	// The load is two pre-order walks. The first places every node in its
	// fragment, creating fragments and attribute tables on first sight and
	// counting their rows; the second appends the rows into tables sized
	// exactly, so the freeze below has no slack to cut.
	var place func(n tree.NodeID, parentPath string, parent *pathTable)
	place = func(n tree.NodeID, parentPath string, parent *pathTable) {
		label := textLabel
		if doc.Kind(n) == tree.Element {
			label = doc.Tag(n)
		}
		path := label
		if parentPath != "" {
			path = parentPath + "/" + label
		}
		pt := s.catalog[path]
		if pt == nil {
			pt = s.newPathTable(path, label)
			if parent != nil {
				parent.children = append(parent.children, pt)
			}
		}
		s.pathOf[n] = int32(pt.idx)
		pt.rows++
		for _, a := range doc.Attrs(n) {
			at := pt.attrs[a.Name]
			if at == nil {
				at = &attrTable{table: relational.NewTableShared(path+"/@"+a.Name, relational.Schema{
					{Name: "owner", T: relational.Node},
					{Name: "value", T: relational.String},
				}, s.dict)}
				pt.attrs[a.Name] = at
				pt.attrNames = append(pt.attrNames, a.Name)
				s.attrsByName[a.Name] = append(s.attrsByName[a.Name], at)
			}
			at.rows++
		}
		for c := doc.FirstChild(n); c != tree.Nil; c = doc.NextSibling(c) {
			place(c, path, pt)
		}
	}
	place(doc.Root(), "", nil)
	for _, pt := range s.entries {
		pt.table.Reserve(pt.rows)
		pt.ids = make([]tree.NodeID, 0, pt.rows)
		for _, at := range pt.attrs {
			at.table.Reserve(at.rows)
		}
	}

	var row relational.Row // reused: Append copies the cells
	var fill func(n tree.NodeID, ord int)
	fill = func(n tree.NodeID, ord int) {
		pt := s.entries[s.pathOf[n]]
		value := relational.CodeVal(emptyCode)
		if doc.Kind(n) != tree.Element {
			value = v.nodeCell(n)
		}
		row = append(row[:0],
			relational.NodeVal(int64(n)),
			relational.NodeVal(int64(doc.Parent(n))),
			relational.NodeVal(int64(doc.SubtreeEnd(n))),
			relational.IntVal(int64(ord)),
			value,
		)
		if pt.inlined != nil {
			row = appendInlined(doc, v, n, pt, row)
		}
		s.rowIn[n] = int32(pt.table.Append(row...))
		pt.ids = append(pt.ids, n)
		for i, a := range doc.Attrs(n) {
			pt.attrs[a.Name].table.Append(relational.NodeVal(int64(n)), v.attrCell(doc, n, i))
		}
		childOrd := 0
		for c := doc.FirstChild(n); c != tree.Nil; c = doc.NextSibling(c) {
			fill(c, childOrd)
			childOrd++
		}
	}
	fill(doc.Root(), 0)
	// The tables are complete: build every index in one pass per column.
	for _, pt := range s.entries {
		pt.parentIdx = pt.table.CreateIndex(pParent)
		for _, at := range pt.attrs {
			at.ownerIdx = at.table.CreateIndex(0)
			at.valueIdx = at.table.CreateIndex(1)
		}
	}
	return s
}

func (s *Path) newPathTable(path, label string) *pathTable {
	sch := relational.Schema{
		{Name: "id", T: relational.Node},
		{Name: "parent", T: relational.Node},
		{Name: "end", T: relational.Node},
		{Name: "ord", T: relational.Int},
		{Name: "value", T: relational.String},
	}
	pt := &pathTable{path: path, tag: label, depth: strings.Count(path, "/") + 1,
		attrs: make(map[string]*attrTable)}
	if s.inline && label != textLabel {
		if names := inlinedChildren(label); names != nil {
			pt.inlined = make(map[string][2]int, len(names))
			for _, name := range names {
				vCol := len(sch)
				sch = append(sch,
					relational.Column{Name: name, T: relational.String},
					relational.Column{Name: name + "?", T: relational.Int})
				pt.inlined[name] = [2]int{vCol, vCol + 1}
			}
		}
	}
	pt.table = relational.NewTableShared(path, sch, s.dict)
	pt.idx = len(s.entries)
	s.catalog[path] = pt
	s.byTag[label] = append(s.byTag[label], pt)
	s.entries = append(s.entries, pt)
	return pt
}

// inlinedChildren returns the children System C inlines as columns of the
// relation of tag: the single-occurrence #PCDATA children its DTD sequence
// or choice declares.
func inlinedChildren(tag string) []string {
	decl := schema.Lookup(tag)
	if decl == nil || (decl.Kind != schema.Sequence && decl.Kind != schema.Choice) {
		return nil
	}
	var names []string
	for _, c := range decl.Children {
		childDecl := schema.Lookup(c.Name)
		single := c.Occ == schema.One || c.Occ == schema.ZeroOrOne
		if single && childDecl != nil && childDecl.Kind == schema.PCDATA {
			names = append(names, c.Name)
		}
	}
	return names
}

// appendInlined fills the inlined child-text columns from the document:
// the value of an inlined child is its string value, coded by v.
func appendInlined(doc *tree.Doc, v *Values, n tree.NodeID, pt *pathTable, row relational.Row) relational.Row {
	// Extend row to the table's full width in schema order.
	for len(row) < len(pt.table.Schema) {
		row = append(row, relational.CodeVal(emptyCode))
	}
	for c := doc.FirstChild(n); c != tree.Nil; c = doc.NextSibling(c) {
		if doc.Kind(c) != tree.Element {
			continue
		}
		if cols, ok := pt.inlined[doc.Tag(c)]; ok {
			row[cols[0]] = v.nodeCell(c)
			row[cols[1]] = relational.IntVal(1)
		}
	}
	return row
}

func (s *Path) entryOf(n tree.NodeID) *pathTable { return s.entries[s.pathOf[n]] }

// rowOf finds node n's fragment and its row there: two loads from the
// store-wide node-indexed arrays, where a per-fragment id index would
// search a directory of that fragment's scattered ids.
func (s *Path) rowOf(n tree.NodeID) (pt *pathTable, row int) {
	return s.entries[s.pathOf[n]], int(s.rowIn[n])
}

// Name implements nodestore.Store.
func (s *Path) Name() string { return s.name }

// Root implements nodestore.Store.
func (s *Path) Root() tree.NodeID { return s.root }

// Kind implements nodestore.Store.
func (s *Path) Kind(n tree.NodeID) tree.Kind {
	if s.entryOf(n).tag == textLabel {
		return tree.Text
	}
	return tree.Element
}

// Tag implements nodestore.Store.
func (s *Path) Tag(n tree.NodeID) string {
	if t := s.entryOf(n).tag; t != textLabel {
		return t
	}
	return ""
}

// Text implements nodestore.Store.
func (s *Path) Text(n tree.NodeID) string {
	pt, row := s.rowOf(n)
	if pt.tag != textLabel {
		return ""
	}
	return pt.table.Str(row, pValue)
}

// Parent implements nodestore.Store.
func (s *Path) Parent(n tree.NodeID) tree.NodeID {
	pt, row := s.rowOf(n)
	return tree.NodeID(pt.table.Int(row, pParent))
}

// Children implements nodestore.Store: one probe per child fragment, then
// an ordinal merge — the fragmentation tax on full reconstruction.
func (s *Path) Children(n tree.NodeID, buf []tree.NodeID) []tree.NodeID {
	pt := s.entryOf(n)
	type ordNode struct {
		ord int64
		id  tree.NodeID
	}
	var kids []ordNode
	for _, c := range pt.children {
		for _, rid := range c.parentIdx.LookupInt(int64(n)) {
			kids = append(kids, ordNode{c.table.Int(int(rid), pOrd), tree.NodeID(c.table.Int(int(rid), pID))})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].ord < kids[j].ord })
	for _, k := range kids {
		buf = append(buf, k.id)
	}
	return buf
}

// TextChildren implements nodestore.TextChildLister: one probe of the
// entry's #text child fragment. A single parent's text rows sit in
// document order within that fragment, so unlike Children there is no
// cross-fragment ordinal merge to pay.
func (s *Path) TextChildren(n tree.NodeID, buf []tree.NodeID) []tree.NodeID {
	pt := s.entryOf(n)
	for _, c := range pt.children {
		if c.tag != textLabel {
			continue
		}
		for _, rid := range c.parentIdx.LookupInt(int64(n)) {
			buf = append(buf, tree.NodeID(c.table.Int(int(rid), pID)))
		}
	}
	return buf
}

// ChildrenByTag implements nodestore.Store: a single-fragment probe, the
// fragmentation win for targeted access.
func (s *Path) ChildrenByTag(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	pt := s.entryOf(n)
	for _, c := range pt.children {
		if c.tag != tag {
			continue
		}
		for _, rid := range c.parentIdx.LookupInt(int64(n)) {
			buf = append(buf, tree.NodeID(c.table.Int(int(rid), pID)))
		}
	}
	return buf
}

// Attr implements nodestore.Store.
func (s *Path) Attr(n tree.NodeID, name string) (string, bool) {
	pt := s.entryOf(n)
	at := pt.attrs[name]
	if at == nil {
		return "", false
	}
	rows := at.ownerIdx.LookupInt(int64(n))
	if len(rows) == 0 {
		return "", false
	}
	return at.table.Str(int(rows[0]), 1), true
}

// AttrCode implements nodestore.AttrCoder: the dictionary code of the
// attribute's value straight from the fragment's attribute table, no
// decode. Codes are store-wide (the shared dictionary), so they compare
// across fragments.
func (s *Path) AttrCode(n tree.NodeID, name string) (int32, bool) {
	pt := s.entryOf(n)
	at := pt.attrs[name]
	if at == nil {
		return 0, false
	}
	rows := at.ownerIdx.LookupInt(int64(n))
	if len(rows) == 0 {
		return 0, false
	}
	return at.table.Code(int(rows[0]), 1), true
}

// CodeOf implements nodestore.AttrCoder.
func (s *Path) CodeOf(v string) (int32, bool) { return s.dict.Code(v) }

// Dict returns the store's value dictionary.
func (s *Path) Dict() *relational.Dict { return s.dict }

// Attrs implements nodestore.Store.
func (s *Path) Attrs(n tree.NodeID) []tree.Attr {
	pt := s.entryOf(n)
	var out []tree.Attr
	for _, name := range pt.attrNames {
		if v, ok := s.Attr(n, name); ok {
			out = append(out, tree.Attr{Name: name, Value: v})
		}
	}
	return out
}

// StringValue implements nodestore.Store: the node's fragment row gives
// the subtree end and the text heap is sliced. The #text fragments its
// text rows are scattered over are not visited.
func (s *Path) StringValue(n tree.NodeID) string {
	pt, row := s.rowOf(n)
	return s.text.Span(n, tree.NodeID(pt.table.Int(row, pEnd)))
}

// SubtreeEnd implements nodestore.Store.
func (s *Path) SubtreeEnd(n tree.NodeID) tree.NodeID {
	pt, row := s.rowOf(n)
	return tree.NodeID(pt.table.Int(row, pEnd))
}

// TagExtent implements nodestore.Store: a catalog consultation per path
// ending in the tag, then an id merge. Each fragment's clustered id column
// is already in document order, so a single fragment needs no sort.
func (s *Path) TagExtent(tag string, buf []tree.NodeID) ([]tree.NodeID, bool) {
	start := len(buf)
	pts := s.byTag[tag]
	for _, pt := range pts {
		buf = append(buf, pt.ids...)
	}
	if len(pts) > 1 {
		slices.Sort(buf[start:])
	}
	return buf, true
}

// TagCard implements nodestore.Store: the clustered id columns
// know their lengths — a catalog read, no extent materialization.
func (s *Path) TagCard(tag string) (int, bool) {
	n := 0
	for _, pt := range s.byTag[tag] {
		n += len(pt.ids)
	}
	return n, true
}

// PathCard implements nodestore.Store: a full path is one
// fragment, whose clustered id column knows its length. Distinct from
// CountPath, which stays unsupported: CountPath feeds the QUERY rewrite
// (count() without the extent — System D's summary privilege), while
// PathCard feeds the PLANNER's cost model, which any cataloged mapping
// can answer about its own tables. The lookup must not allocate: the
// planner's bigEnough gate probes it on every compile.
func (s *Path) PathCard(path []string) (int, bool) {
	pt := s.fragment(path)
	if pt == nil {
		return 0, true // path provably empty: the catalog is complete
	}
	return len(pt.ids), true
}

// fragment resolves a label path to its table without allocating: the
// "/"-joined catalog key is assembled in a stack scratch buffer, and the
// map index's string conversion is the non-allocating compiler pattern.
func (s *Path) fragment(path []string) *pathTable {
	var scratch [128]byte
	key := scratch[:0]
	for i, p := range path {
		if i > 0 {
			key = append(key, '/')
		}
		key = append(key, p...)
	}
	return s.catalog[string(key)]
}

// Descendants implements nodestore.Store: per-fragment clustered-index
// range scans.
func (s *Path) Descendants(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	lo, hi := n, s.SubtreeEnd(n)
	start := len(buf)
	for _, pt := range s.byTag[tag] {
		i := sort.Search(len(pt.ids), func(k int) bool { return pt.ids[k] > lo })
		for ; i < len(pt.ids) && pt.ids[i] < hi; i++ {
			buf = append(buf, pt.ids[i])
		}
	}
	ext := buf[start:]
	sort.Slice(ext, func(i, j int) bool { return ext[i] < ext[j] })
	return buf
}

// PathExtent implements nodestore.Store: the defining strength of the path
// mapping — a full path is one fragment scan.
func (s *Path) PathExtent(path []string, buf []tree.NodeID) ([]tree.NodeID, bool) {
	pt := s.fragment(path)
	if pt == nil {
		return buf, true // path provably empty: the catalog is complete
	}
	return append(buf, pt.ids...), true
}

// CountDescendants implements nodestore.Store: like CountPath, the
// paper's relational systems do not exploit fragment statistics this way.
func (s *Path) CountDescendants(tree.NodeID, string) (int, bool) { return 0, false }

// AttrLookup implements nodestore.Store: one value-index probe per
// fragment carrying the attribute, then an owner merge in document order.
func (s *Path) AttrLookup(name, value string) ([]tree.NodeID, bool) {
	var out []tree.NodeID
	for _, at := range s.attrsByName[name] {
		for _, row := range at.valueIdx.LookupString(value) {
			out = append(out, tree.NodeID(at.table.Int(int(row), 0)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// CountPath implements nodestore.Store. The fragmented mapping could count
// from fragment sizes, but the paper's relational systems do not exploit
// this (System D's summary does); reproducing their behavior, the engine is
// told counting requires the extent.
func (s *Path) CountPath([]string) (int, bool) { return 0, false }

// InlinedChildText implements nodestore.Store. supported is true only when
// this fragment actually has an inlined column for tag; any other child
// must be answered by navigation (it may be repeated or mixed content).
func (s *Path) InlinedChildText(n tree.NodeID, tag string) (string, bool, bool) {
	if !s.inline {
		return "", false, false
	}
	pt, row := s.rowOf(n)
	cols, has := pt.inlined[tag]
	if !has {
		return "", false, false
	}
	if pt.table.Int(row, cols[1]) == 0 {
		return "", false, true
	}
	return pt.table.Str(row, cols[0]), true, true
}

// colIDCursor streams the id column of one fragment over a posting list,
// optionally filtering rows — the typed-column replacement for scanning
// materialized rows. With cfs set, a row is kept when the fragment row
// satisfies every compiled pushed-down filter (s and frag locate them).
type colIDCursor struct {
	ids  []int32 // the fragment's contiguous id column
	rows []int32
	s    *Path
	frag *pathTable
	cfs  []codedFilter
}

func (c *colIDCursor) match(row int32) bool {
	return len(c.cfs) == 0 || c.s.fragMatchCoded(c.frag, tree.NodeID(c.ids[row]), c.cfs)
}

func (c *colIDCursor) Next() (tree.NodeID, bool) {
	for len(c.rows) > 0 {
		row := c.rows[0]
		c.rows = c.rows[1:]
		if c.match(row) {
			return tree.NodeID(c.ids[row]), true
		}
	}
	return tree.Nil, false
}

// NextBatch implements nodestore.BatchCursor.
func (c *colIDCursor) NextBatch(dst []tree.NodeID) int {
	n := 0
	for len(c.rows) > 0 && n < len(dst) {
		row := c.rows[0]
		c.rows = c.rows[1:]
		if c.match(row) {
			dst[n] = tree.NodeID(c.ids[row])
			n++
		}
	}
	return n
}

// ChildrenCursor implements nodestore.Store. Reconstructing the full
// child list needs the ordinal merge across fragments, so the cursor wraps
// the materializing method.
func (s *Path) ChildrenCursor(n tree.NodeID) nodestore.Cursor {
	return nodestore.NewSliceCursor(s.Children(n, nil))
}

// ChildrenByTagCursor implements nodestore.Store: the catalog names
// at most one child fragment per label, so a tagged child step streams the
// fragment's parent-index posting list directly.
func (s *Path) ChildrenByTagCursor(n tree.NodeID, tag string) nodestore.Cursor {
	pt := s.entryOf(n)
	for _, c := range pt.children {
		if c.tag != tag {
			continue
		}
		return &colIDCursor{ids: c.table.IntCol(pID), rows: c.parentIdx.LookupInt(int64(n))}
	}
	return nodestore.EmptyCursor{}
}

// DescendantsCursor implements nodestore.Store. A single matching
// fragment streams its clustered-index range in place; several fragments
// interleave in document order and fall back to the merging slice method.
func (s *Path) DescendantsCursor(n tree.NodeID, tag string) nodestore.Cursor {
	pts := s.byTag[tag]
	if len(pts) == 1 {
		return nodestore.NewSliceCursor(summary.Within(pts[0].ids, n, s.SubtreeEnd(n)))
	}
	return nodestore.NewSliceCursor(s.Descendants(n, tag, nil))
}

// PathExtentCursor implements nodestore.Store: a full path is one
// fragment, so its extent streams from the clustered id column in place.
func (s *Path) PathExtentCursor(path []string) (nodestore.Cursor, bool) {
	pt := s.fragment(path)
	if pt == nil {
		return nodestore.EmptyCursor{}, true // path provably empty
	}
	return nodestore.NewSliceCursor(pt.ids), true
}

// ChildrenByTagFilteredCursor implements nodestore.Store:
// pushed-down predicates evaluate against the child fragment's own
// attribute tables (and its #text child fragment) while the posting list
// streams, so the engine never sees rejected rows. The predicates compile
// against the store dictionary once per plan step.
func (s *Path) ChildrenByTagFilteredCursor(n tree.NodeID, tag string, fs []nodestore.ValueFilter) (nodestore.Cursor, bool) {
	pt := s.entryOf(n)
	for _, c := range pt.children {
		if c.tag != tag {
			continue
		}
		return &colIDCursor{
			ids: c.table.IntCol(pID), rows: c.parentIdx.LookupInt(int64(n)),
			s: s, frag: c, cfs: s.compiled(fs),
		}, true
	}
	return nodestore.EmptyCursor{}, true
}

// compiled returns fs compiled against the store's dictionary, from the
// memo when a cursor of the same plan step compiled it before.
func (s *Path) compiled(fs []nodestore.ValueFilter) []codedFilter {
	if cfs, ok := s.filters.lookup(fs); ok {
		return cfs
	}
	cfs := compileFilters(s.dict, fs)
	s.filters.store(fs, cfs)
	return cfs
}

// fragMatchCoded evaluates compiled pushed-down filters against one row of
// a fragment: attribute filters probe the fragment's attribute table by
// owner, text filters probe its #text child fragments, and a Child
// component descends into the named child fragment first.
func (s *Path) fragMatchCoded(pt *pathTable, id tree.NodeID, cfs []codedFilter) bool {
	for i := range cfs {
		cf := &cfs[i]
		if cf.f.Child == "" {
			if !s.fragValueMatchCoded(pt, id, cf) {
				return false
			}
			continue
		}
		matched := false
		for _, c := range pt.children {
			if c.tag != cf.f.Child {
				continue
			}
			for _, rid := range c.parentIdx.LookupInt(int64(id)) {
				if s.fragValueMatchCoded(c, tree.NodeID(c.table.Int(int(rid), pID)), cf) {
					matched = true
					break
				}
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// fragValueMatchCoded applies the compiled filter's value source (the
// fragment's attribute table, or its #text child fragments) at one
// fragment row, comparing dictionary codes where equality suffices.
func (s *Path) fragValueMatchCoded(pt *pathTable, id tree.NodeID, cf *codedFilter) bool {
	if cf.f.Attr != "" {
		at := pt.attrs[cf.f.Attr]
		if at == nil {
			return false
		}
		rows := at.ownerIdx.LookupInt(int64(id))
		if len(rows) == 0 {
			return false
		}
		return cf.matchCode(s.dict, at.table.Code(int(rows[0]), 1))
	}
	for _, c := range pt.children {
		if c.tag != textLabel {
			continue
		}
		codes := c.table.CodeCol(pValue)
		for _, rid := range c.parentIdx.LookupInt(int64(id)) {
			if cf.matchCode(s.dict, codes[rid]) {
				return true
			}
		}
	}
	return false
}

// PathExtentFilteredCursor implements nodestore.Store: the
// defining strength of the fragmenting mapping extends to filtered scans —
// a filtered full-path extent is one clustered fragment scan with the
// predicate answered from the fragment's own attribute tables. The cursor
// is the shared selection-vector slice scan with the fragment-probing
// match plugged in, so it batches like every other filtered extent.
func (s *Path) PathExtentFilteredCursor(path []string, fs []nodestore.ValueFilter) (nodestore.Cursor, bool) {
	pt := s.fragment(path)
	if pt == nil {
		return nodestore.EmptyCursor{}, true // path provably empty
	}
	return s.filteredCursor(pt, pt.ids, fs), true
}

// filteredCursor scans one run of a fragment's clustered id column with
// the pushed-down filters answered from the fragment's own tables. The
// filters compile once per plan step, so the selection vector fills by
// comparing dictionary codes against the attribute tables' contiguous
// value columns.
func (s *Path) filteredCursor(pt *pathTable, ids []tree.NodeID, fs []nodestore.ValueFilter) nodestore.Cursor {
	cfs := s.compiled(fs)
	return nodestore.NewMatchSliceCursor(ids, func(id tree.NodeID) bool {
		return s.fragMatchCoded(pt, id, cfs)
	})
}

// TagExtentPartitions implements nodestore.Store. Several
// fragments may end in the tag, so the extent materializes once (the same
// merge TagExtent pays) and splits into contiguous ranges of the merged,
// document-ordered slice.
func (s *Path) TagExtentPartitions(tag string, k int) ([]nodestore.Cursor, bool) {
	if pts := s.byTag[tag]; len(pts) == 1 {
		// One fragment: split its clustered id column in place.
		return nodestore.SliceCursors(nodestore.SplitIDs(pts[0].ids, k)), true
	}
	ext, _ := s.TagExtent(tag, nil)
	return nodestore.SliceCursors(nodestore.SplitIDs(ext, k)), true
}

// PathExtentPartitions implements nodestore.Store: a full path
// is one fragment, so a partition is a contiguous range of the fragment's
// clustered id column, sliced in place.
func (s *Path) PathExtentPartitions(path []string, k int) ([]nodestore.Cursor, bool) {
	pt := s.fragment(path)
	if pt == nil {
		return nil, true // path provably empty: zero partitions
	}
	return nodestore.SliceCursors(nodestore.SplitIDs(pt.ids, k)), true
}

// PathExtentFilteredPartitions implements nodestore.Store: each
// partition is a filtered scan over its range of the fragment's clustered
// id column, evaluating the pushed-down predicates against the fragment's
// own attribute and #text tables exactly like the sequential
// PathExtentFilteredCursor.
func (s *Path) PathExtentFilteredPartitions(path []string, fs []nodestore.ValueFilter, k int) ([]nodestore.Cursor, bool) {
	pt := s.fragment(path)
	if pt == nil {
		return nil, true // path provably empty: zero partitions
	}
	ranges := nodestore.SplitIDs(pt.ids, k)
	parts := make([]nodestore.Cursor, len(ranges))
	for i, ids := range ranges {
		parts[i] = s.filteredCursor(pt, ids, fs)
	}
	return parts, true
}

// Stats implements nodestore.Store. SizeBytes counts the fragments and
// attribute tables with their indexes, the catalog that finds them (the
// fragment headers, the path, tag and attribute maps, and the node-indexed
// entry and row arrays), the shared dictionary and the text heap.
func (s *Path) Stats() nodestore.Stats {
	size := int64(unsafe.Sizeof(*s)) +
		int64(cap(s.entries))*8 + int64(cap(s.pathOf)+cap(s.rowIn))*4 +
		relational.MapBytes(s.catalog) +
		relational.MapBytes(s.byTag) +
		relational.MapBytes(s.attrsByName)
	for _, ats := range s.attrsByName {
		size += int64(cap(ats)) * 8
	}
	for _, pts := range s.byTag {
		size += int64(cap(pts)) * 8
	}
	tables := 0
	for _, pt := range s.entries {
		// pt.path shares its bytes with the table's name, counted there.
		size += int64(unsafe.Sizeof(*pt)) + pt.table.SizeBytes() + int64(cap(pt.ids))*4 +
			int64(cap(pt.children))*8 + int64(cap(pt.attrNames))*16 +
			relational.MapBytes(pt.attrs)
		if pt.inlined != nil {
			size += relational.MapBytes(pt.inlined)
		}
		tables++
		for _, at := range pt.attrs {
			size += int64(unsafe.Sizeof(*at)) + at.table.SizeBytes()
			tables++
		}
	}
	size += s.dict.SizeBytes() + s.text.SizeBytes()
	return nodestore.Stats{Name: s.name, SizeBytes: size, Tables: tables, Nodes: s.nNodes}
}
