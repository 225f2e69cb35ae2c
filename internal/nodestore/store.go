// Package nodestore defines the storage abstraction of the XMark
// reproduction and provides its main-memory implementations.
//
// The paper's central observation is that "the physical XML mapping has a
// far-reaching influence on the complexity of query plans" and that each
// mapping favors certain query types. To reproduce that, every system
// architecture (the paper's anonymized Systems A–G) is an implementation of
// the Store interface; the query engine is shared, and performance
// differences emerge from how each store answers the same navigation and
// access-path requests.
package nodestore

import (
	"repro/internal/tree"
)

// Stats describes a loaded store for the Table 1 reproduction (database
// sizes) and diagnostics.
type Stats struct {
	// Name identifies the store architecture.
	Name string
	// SizeBytes estimates the resident size of the database.
	SizeBytes int64
	// Tables is the number of relations (0 for native tree stores).
	Tables int
	// Nodes is the number of stored document nodes.
	Nodes int
}

// Store is the access-path interface a query processor sees. Node handles
// are document-order identifiers (tree.NodeID); how each operation is
// answered — pointer chase, hash probe into one big relation, per-path
// table lookup, structural-summary consultation — is the architecture under
// test. Stores that can stream navigation results without materializing
// id slices additionally implement CursorStore; the engine's pipeline
// prefers those cursors and falls back to the slice methods below.
type Store interface {
	// Name identifies the architecture, e.g. "edge" or "dom+summary".
	Name() string
	// Root returns the document root element.
	Root() tree.NodeID
	// Kind reports whether n is an element or text node.
	Kind(n tree.NodeID) tree.Kind
	// Tag returns the element tag name, or "" for text nodes.
	Tag(n tree.NodeID) string
	// Text returns a text node's content, or "" for elements. Like
	// StringValue, the result may alias store memory.
	Text(n tree.NodeID) string
	// Parent returns the parent node, or tree.Nil at the root.
	Parent(n tree.NodeID) tree.NodeID
	// Children appends all children of n in document order to buf.
	Children(n tree.NodeID, buf []tree.NodeID) []tree.NodeID
	// ChildrenByTag appends the element children with the given tag.
	ChildrenByTag(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID
	// Attr returns the value of the named attribute of n.
	Attr(n tree.NodeID, name string) (string, bool)
	// Attrs returns all attributes of n in document order.
	Attrs(n tree.NodeID) []tree.Attr
	// StringValue returns the concatenated text content of the subtree:
	// one span of the store's document-order text heap (tree.TextHeap),
	// cut in O(1) after the store's own lookup of n, with no allocation.
	// The result aliases store memory shared by every reader, so callers
	// never mutate it and copy only when they need to (System G's
	// NaiveStrings copy in the evaluator is the one deliberate copy).
	StringValue(n tree.NodeID) string
	// SubtreeEnd returns one past the last descendant of n.
	SubtreeEnd(n tree.NodeID) tree.NodeID
	// Descendants appends all tag-labeled elements in n's subtree.
	Descendants(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID
	// TagExtent appends every element with the given tag in document
	// order. ok is false if the store has no tag access path and the
	// caller must traverse instead.
	TagExtent(tag string, buf []tree.NodeID) ([]tree.NodeID, bool)
	// PathExtent appends the extent of an exact root label path. ok is
	// false if the store cannot answer paths directly.
	PathExtent(path []string, buf []tree.NodeID) ([]tree.NodeID, bool)
	// CountDescendants returns the number of tag-labeled elements in n's
	// subtree without materializing them. ok is false when the store has
	// no catalog structure to answer from; System D's structural summary
	// answers it with binary searches only.
	CountDescendants(n tree.NodeID, tag string) (int, bool)
	// CountPath returns the cardinality of an exact root label path
	// without data access. ok is false if unsupported; the paper's System
	// D supports it via its structural summary.
	CountPath(path []string) (int, bool)
	// AttrLookup returns the elements carrying an attribute name with
	// exactly the given value, in document order. ok is false when the
	// store maintains no attribute value index and the caller must scan;
	// the paper describes Q1 as "a table scan or index lookup" — this is
	// the index-lookup path.
	AttrLookup(name, value string) ([]tree.NodeID, bool)
	// InlinedChildText returns the text content of n's single tag-labeled
	// child when the storage layout inlines it (the paper's System C,
	// following the DTD-aware mapping of [23]). supported is false when
	// the layout has no inlining.
	InlinedChildText(n tree.NodeID, tag string) (val string, ok bool, supported bool)
	// Stats reports size accounting for the Table 1 reproduction.
	Stats() Stats
}
