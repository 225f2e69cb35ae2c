package mapping

import (
	"slices"
	"time"

	"repro/internal/relational"
	"repro/internal/tree"
)

// emptyCode is the code of "", the first value NewValues interns: the value
// cell of every element row and of every absent inlined child.
const emptyCode = 0

// Values is the value dictionary of one parsed document: every string any
// of Systems A, B and C stores, interned once in document order, plus the
// code of each value by node and by attribute, which the loaders append
// without hashing a string. The dictionary is sealed and read-only, so the
// stores of one catalog share it; the per-node codes serve the loads only.
type Values struct {
	// Dict holds every value; its text values are spans of the document's
	// text heap.
	Dict *relational.Dict
	// BuildTime is the wall time of the one interning pass.
	BuildTime time.Duration

	node []int32 // text node: its text; element System C inlines: its string value; else -1
	attr []int32 // the document's attributes in document order: their values
}

// NewValues interns, in one pass over doc, the text of every text node,
// every attribute value, "" and the string value of every element System C
// inlines into its parent's relation, and seals the dictionary.
func NewValues(doc *tree.Doc) *Values {
	start := time.Now()
	text := doc.TextHeap()
	d := relational.NewDictOver(text.Data())
	d.Intern("") // emptyCode
	v := &Values{Dict: d, node: make([]int32, doc.Len()), attr: make([]int32, 0, doc.AttrCount())}
	// inlines[t] lists the tag symbols inlined into the relation of tag t.
	inlines := make([][]int32, doc.TagCount())
	for t := range inlines {
		for _, name := range inlinedChildren(doc.TagName(int32(t))) {
			if sym := doc.TagSymbol(name); sym >= 0 {
				inlines[t] = append(inlines[t], sym)
			}
		}
	}
	for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
		if doc.Kind(n) != tree.Element {
			v.node[n] = d.InternSpan(text.Bounds(n, n+1))
			continue
		}
		for _, a := range doc.Attrs(n) {
			v.attr = append(v.attr, d.Intern(a.Value))
		}
		// An element no relation inlines has no code: a loader asking for
		// one appends -1, which Append rejects.
		v.node[n] = -1
		if p := doc.Parent(n); p != tree.Nil && slices.Contains(inlines[doc.TagID(p)], doc.TagID(n)) {
			v.node[n] = d.InternSpan(text.Bounds(n, doc.SubtreeEnd(n)))
		}
	}
	d.Seal()
	v.BuildTime = time.Since(start)
	return v
}

// attrCell returns the String cell of the value of Attrs(n)[i]: its code.
func (v *Values) attrCell(doc *tree.Doc, n tree.NodeID, i int) relational.Value {
	return relational.CodeVal(v.attr[doc.FirstAttr(n)+i])
}

// nodeCell returns the String cell of the text of text node n, or of the
// string value of an element n System C inlines: its code.
func (v *Values) nodeCell(n tree.NodeID) relational.Value {
	return relational.CodeVal(v.node[n])
}
