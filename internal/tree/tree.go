// Package tree provides the in-memory document representation shared by all
// storage backends of the XMark reproduction.
//
// Nodes live in an arena in document order, so a node's identifier is its
// pre-order rank: comparing identifiers is comparing document order, which
// is what the paper's ordered-access queries (Q2–Q4) and the XQuery "<<"
// operator need. Each element also records the end of its subtree extent,
// giving O(1) ancestor tests and allocation-free descendant scans — the
// containment-encoding idea the paper attributes to [26].
package tree

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/saxparse"
)

// NodeID identifies a node within its Doc; it equals the node's pre-order
// rank in document order.
type NodeID int32

// Nil is the absent node.
const Nil NodeID = -1

// Kind discriminates element nodes from text nodes.
type Kind uint8

// Node kinds.
const (
	Element Kind = iota
	Text
)

// Attr is one attribute instance.
type Attr struct {
	Name  string
	Value string
}

// Doc is a parsed XML document. The zero value is empty; build Docs with
// Parse or Builder.
type Doc struct {
	kinds  []Kind
	tags   []int32 // symbol per element; -1 for text nodes
	text   TextHeap
	parent []NodeID
	next   []NodeID
	first  []NodeID
	end    []NodeID // one past the last descendant

	attrStart []int32
	attrLen   []uint8
	attrs     []Attr

	tagNames []string
	tagIDs   map[string]int32

	// openTags/closeTags are the per-symbol pre-rendered "<tag" and
	// "</tag>" byte slices the subtree writer emits from; built once when
	// the Builder finalizes (the tag dictionary is sealed after Doc()).
	openTags  [][]byte
	closeTags [][]byte
}

// Parse builds a Doc from the XML document in data. Whitespace-only
// character data between elements is dropped; the XMark generator emits
// such whitespace only for readability and no benchmark query observes it.
func Parse(data []byte) (*Doc, error) {
	b := NewBuilder()
	err := saxparse.Parse(data, saxparse.Callbacks{
		StartElement: func(name string, attrs []saxparse.Attr) error {
			b.Start(name)
			for _, a := range attrs {
				b.Attr(a.Name, a.Value)
			}
			return nil
		},
		EndElement: func(string) error { b.End(); return nil },
		CharData: func(text string) error {
			if !isAllSpace(text) {
				b.Text(text)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return b.Doc()
}

func isAllSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// TextHeap is a document's text stored once: every text node's content
// appended in document order, plus the heap bytes that precede each node.
// A subtree is a contiguous pre-order NodeID range, so any node's string
// value is one slice of the heap. The heap is immutable; spans alias it.
type TextHeap struct {
	data string
	off  []int32 // off[n] = heap bytes before node n; len = node count + 1
}

// Span returns the text of the NodeID range [n, end): Span(n, n+1) is a
// text node's content ("" for an element) and Span(n, SubtreeEnd(n)) is
// the string value of n.
func (h TextHeap) Span(n, end NodeID) string { return h.data[h.off[n]:h.off[end]] }

// Bounds returns where Span(n, end) lies in Data: Data()[lo:hi].
func (h TextHeap) Bounds(n, end NodeID) (lo, hi int) { return int(h.off[n]), int(h.off[end]) }

// Data returns the whole heap, every text node's content in document order.
func (h TextHeap) Data() string { return h.data }

// SizeBytes is the exact footprint of the heap and its offsets.
func (h TextHeap) SizeBytes() int64 { return int64(len(h.data)) + int64(len(h.off))*4 }

// Builder assembles a Doc from document-order events.
type Builder struct {
	d         *Doc
	text      strings.Builder // the heap under construction; String() does not copy
	maxText   int             // what int32 offsets address; lowered by tests
	stack     []NodeID        // open elements
	lastChild []NodeID        // most recent child at each stack depth
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{d: &Doc{tagIDs: make(map[string]int32)}, maxText: math.MaxInt32}
}

func (b *Builder) newNode(kind Kind) NodeID {
	d := b.d
	id := NodeID(len(d.kinds))
	d.kinds = append(d.kinds, kind)
	d.tags = append(d.tags, -1)
	d.text.off = append(d.text.off, int32(b.text.Len()))
	d.parent = append(d.parent, Nil)
	d.next = append(d.next, Nil)
	d.first = append(d.first, Nil)
	d.end = append(d.end, id+1)
	d.attrStart = append(d.attrStart, int32(len(d.attrs)))
	d.attrLen = append(d.attrLen, 0)
	if top := len(b.stack) - 1; top >= 0 {
		p := b.stack[top]
		d.parent[id] = p
		if lc := b.lastChild[top]; lc == Nil {
			d.first[p] = id
		} else {
			d.next[lc] = id
		}
		b.lastChild[top] = id
	}
	return id
}

// Start opens an element with the given tag.
func (b *Builder) Start(tag string) {
	id := b.newNode(Element)
	b.d.tags[id] = b.internTag(tag)
	b.stack = append(b.stack, id)
	b.lastChild = append(b.lastChild, Nil)
}

// Attr adds an attribute to the most recently started element. It must be
// called before any child is added.
func (b *Builder) Attr(name, value string) {
	d := b.d
	id := b.stack[len(b.stack)-1]
	if d.first[id] != Nil {
		panic("tree: Attr after child")
	}
	d.attrs = append(d.attrs, Attr{Name: name, Value: value})
	d.attrLen[id]++
}

// Text adds a text node under the currently open element.
func (b *Builder) Text(text string) {
	if len(b.stack) == 0 {
		panic("tree: Text outside root element")
	}
	b.newNode(Text)
	b.text.WriteString(text)
}

// End closes the most recently opened element.
func (b *Builder) End() {
	id := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.lastChild = b.lastChild[:len(b.lastChild)-1]
	b.d.end[id] = NodeID(len(b.d.kinds))
}

// Doc finalizes and returns the document. The builder must have closed all
// elements and created exactly one root element, and the text content must
// fit the heap's int32 offsets.
func (b *Builder) Doc() (*Doc, error) {
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("tree: %d unclosed elements", len(b.stack))
	}
	if len(b.d.kinds) == 0 {
		return nil, fmt.Errorf("tree: empty document")
	}
	if b.d.kinds[0] != Element || b.d.end[0] != NodeID(len(b.d.kinds)) {
		return nil, fmt.Errorf("tree: document must have a single element root")
	}
	if b.text.Len() > b.maxText {
		return nil, fmt.Errorf("tree: %d bytes of text content exceed the %d-byte text heap limit", b.text.Len(), b.maxText)
	}
	b.d.text.data = b.text.String()
	b.d.text.off = append(b.d.text.off, int32(len(b.d.text.data)))
	b.d.renderTagTables()
	return b.d, nil
}

func (b *Builder) internTag(tag string) int32 {
	if id, ok := b.d.tagIDs[tag]; ok {
		return id
	}
	id := int32(len(b.d.tagNames))
	b.d.tagNames = append(b.d.tagNames, tag)
	b.d.tagIDs[tag] = id
	return id
}
