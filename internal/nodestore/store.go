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

// Store is the access-path interface a query processor sees, and the one
// contract every architecture implements in full. Node handles are
// document-order identifiers (tree.NodeID); how each operation is answered
// — pointer chase, hash probe into one big relation, per-path table
// lookup, structural-summary consultation — is the architecture under test.
//
// What a store can and cannot do is carried by the ok=false returns, not by
// which methods it has: a store without a path catalog declines
// PathExtent, PathCard and the path partitions; a profile without in-scan
// filtering declines the filtered cursors; a store without an attached
// text index declines TextCandidates. The planner probes those returns at
// compile time (counted in Plan.Probes) and keeps the general plan where a
// store declines.
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

	// ChildrenCursor streams all children of n in document order: the
	// streaming form of Children, which the engine's pipeline uses so no
	// id slice is materialized.
	ChildrenCursor(n tree.NodeID) Cursor
	// ChildrenByTagCursor streams the element children of n with the tag.
	ChildrenByTagCursor(n tree.NodeID, tag string) Cursor
	// DescendantsCursor streams the tag-labeled elements of n's subtree in
	// document order, excluding n itself.
	DescendantsCursor(n tree.NodeID, tag string) Cursor
	// PathExtentCursor streams the extent of an exact root label path. ok
	// is false exactly when PathExtent's is.
	PathExtentCursor(path []string) (Cursor, bool)

	// ChildrenByTagFilteredCursor streams the tag-labeled element children
	// of n that satisfy every filter (MatchAll semantics), in document
	// order, so rows a pushed-down predicate rejects never surface into
	// the engine. ok is false when the store does not evaluate filters on
	// this axis and the engine must (the paper's main-memory systems
	// navigate, the relational mappings select inside the table scan).
	ChildrenByTagFilteredCursor(n tree.NodeID, tag string, fs []ValueFilter) (Cursor, bool)
	// PathExtentFilteredCursor streams the extent of an exact root label
	// path restricted to nodes satisfying every filter. ok is false when
	// the store has no filtered path access path.
	PathExtentFilteredCursor(path []string, fs []ValueFilter) (Cursor, bool)

	// TagExtentPartitions, PathExtentPartitions and
	// PathExtentFilteredPartitions split a scan into at most k cursors,
	// the storage half of the engine's morsel-style parallelism: (a) the
	// concatenation of the cursors in slice order yields exactly the ids
	// of the sequential scan, in the same order, and (b) every id of
	// partition i precedes every id of partition i+1 in document order.
	// Nodes on one root label path never nest, so for path extents (b)
	// extends to whole subtrees, which lets the engine run downstream
	// navigation per partition and recombine by ordered concatenation.
	// Extents are sorted id slices or document-ordered posting lists, so
	// a partition is a contiguous range (see SplitIDs). ok is false when
	// the store has no access path for the scan and it runs sequentially;
	// an empty extent returns (nil, true). The planner never calls these:
	// TagExtentPartitions answers ok exactly when TagCard does,
	// PathExtentPartitions exactly when PathCard does, and
	// PathExtentFilteredPartitions exactly when PathExtentFilteredCursor
	// does, so the catalog reads decide which scans split.
	TagExtentPartitions(tag string, k int) ([]Cursor, bool)
	PathExtentPartitions(path []string, k int) ([]Cursor, bool)
	// PathExtentFilteredPartitions applies every filter inside each
	// partition, exactly like PathExtentFilteredCursor restricted to the
	// partition's range.
	PathExtentFilteredPartitions(path []string, fs []ValueFilter, k int) ([]Cursor, bool)

	// TagCard returns the number of elements with the tag from the
	// store's catalog (posting-list lengths, clustered column lengths,
	// summary counts) without materializing the extent: the planner's
	// cost reads (the vectorize gate, hash-join build sizing, the
	// empty-extent warnings). It answers ok exactly when TagExtent does,
	// with the extent's length.
	//
	// TagCard and PathCard answer the PLANNER and are deliberately
	// distinct from CountPath/CountDescendants, which answer the QUERY
	// rewrite (a count() served without its extent, the summary
	// privilege the paper grants only System D): any mapping may describe
	// its own tables without changing which systems shortcut which
	// queries.
	TagCard(tag string) (int, bool)
	// PathCard is TagCard for an exact root label path: ok exactly when
	// PathExtent answers ok, with the extent's length.
	PathCard(path []string) (int, bool)

	// AppendSubtree appends n's whole subtree as XML to dst, byte-identical
	// to the recursive serialization (open tag, attributes in document
	// order, children, close tag; `/>` for childless elements; values
	// escaped like tree.AppendEscapedText/Attr). Stores without a tighter
	// native walk delegate to AppendSubtreeRange.
	AppendSubtree(dst []byte, n tree.NodeID) []byte

	// TextSearcher answers contains() candidate pre-filters from an
	// attached full-text index; it declines with ok=false when none is
	// attached.
	TextSearcher
	// AttachTextIndex installs a full-text index at load time, before the
	// store is published to concurrent readers. Stores embed
	// TextIndexHolder for it and for TextSearcher.
	AttachTextIndex(idx TextIndex)
}
