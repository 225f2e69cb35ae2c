package nodestore

import "repro/internal/tree"

// AttrCoder is implemented by dictionary-encoded stores: attribute values
// are stored as int32 dictionary codes, and code equality is equivalent to
// string equality WITHIN one store. Batch hash joins whose keys are
// attribute values of the same store key their index by code and never
// decode a string on the probe path.
//
// Codes must never be compared across stores: the relational stores of
// one catalog share a dictionary, but a shard catalog or a standalone load
// interns its own in its own order — cross-store comparisons, like the
// shard merge, decode first. That contract is the reason the interface
// exposes only per-store lookups.
type AttrCoder interface {
	// AttrCode returns the dictionary code of the attribute's value, or
	// ok=false when the node has no such attribute.
	AttrCode(n tree.NodeID, name string) (int32, bool)
	// CodeOf returns the code of a string value, or ok=false when the
	// value occurs nowhere in the store (it then equals no stored value).
	CodeOf(v string) (int32, bool)
}
