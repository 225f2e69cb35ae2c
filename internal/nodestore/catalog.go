package nodestore

import "repro/internal/tree"

// Cardinalities is the store-side cardinality catalog: stores that keep
// per-extent statistics (posting-list lengths, clustered column lengths,
// summary counts) implement it so the planner's cost decisions — the
// vectorize gate, hash-join build-side sizing — are metadata reads instead
// of materialized extents.
//
// It is deliberately distinct from Store.CountPath/CountDescendants, which
// answer the QUERY rewrite (a count() served without its extent — the
// summary privilege the paper grants only System D): the catalog answers
// the PLANNER, and any mapping may describe its own physical tables
// without changing which systems can shortcut which queries.
type Cardinalities interface {
	// TagCard returns the number of elements with the tag, or ok=false
	// when the store keeps no per-tag statistics.
	TagCard(tag string) (int, bool)
	// PathCard returns the number of nodes on the exact label path, or
	// ok=false when the store keeps no per-path statistics.
	PathCard(path []string) (int, bool)
	// DictCard returns the number of distinct string values in the
	// store's dictionary, or ok=false for undictionarized stores.
	DictCard() (int, bool)
}

// TagCardinality consults the store's cardinality catalog for a tag
// extent size. ok=false means the store keeps no such statistics, not
// that the extent is empty.
func TagCardinality(s Store, tag string) (int, bool) {
	if c, ok := s.(Cardinalities); ok {
		return c.TagCard(tag)
	}
	return 0, false
}

// PathCardinality consults the store's cardinality catalog for a path
// extent size.
func PathCardinality(s Store, path []string) (int, bool) {
	if c, ok := s.(Cardinalities); ok {
		return c.PathCard(path)
	}
	return 0, false
}

// TagCount answers "how many elements carry this tag?" for compile-time
// checks that run on every ad-hoc request: from the cardinality catalog
// where the store keeps one, and only otherwise by materializing the
// extent (which on the fragmenting mapping concatenates and merges every
// fragment ending in the tag). ok=false means the store has no tag access
// path at all.
func TagCount(s Store, tag string) (int, bool) {
	if n, ok := TagCardinality(s, tag); ok {
		return n, true
	}
	ext, ok := s.TagExtent(tag, nil)
	return len(ext), ok
}

// PathCount is TagCount for an exact root label path.
func PathCount(s Store, path []string) (int, bool) {
	if n, ok := PathCardinality(s, path); ok {
		return n, true
	}
	ext, ok := s.PathExtent(path, nil)
	return len(ext), ok
}

// AttrCoder is implemented by dictionary-encoded stores: attribute values
// are stored as int32 dictionary codes, and code equality is equivalent to
// string equality WITHIN one store. Batch hash joins whose keys are
// attribute values of the same store key their index by code and never
// decode a string on the probe path.
//
// Codes must never be compared across stores (each store interns in its
// own order) — cross-store comparisons, like the shard merge, decode
// first. That contract is the reason the interface exposes only per-store
// lookups.
type AttrCoder interface {
	// AttrCode returns the dictionary code of the attribute's value, or
	// ok=false when the node has no such attribute.
	AttrCode(n tree.NodeID, name string) (int32, bool)
	// CodeOf returns the code of a string value, or ok=false when the
	// value occurs nowhere in the store (it then equals no stored value).
	CodeOf(v string) (int32, bool)
}
