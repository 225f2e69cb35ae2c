package nodestore

import "repro/internal/tree"

// SplitIDs splits a document-order id slice into at most k contiguous,
// near-equal runs without copying. Fewer than k runs come back when the
// slice has fewer than k ids; an empty slice yields no runs, and a
// degree below one clamps to a single run — the concatenation of the
// runs is always exactly ids.
func SplitIDs(ids []tree.NodeID, k int) [][]tree.NodeID {
	n := len(ids)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	parts := make([][]tree.NodeID, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		parts = append(parts, ids[lo:hi])
	}
	return parts
}

// SliceCursors wraps each id run in a cursor.
func SliceCursors(parts [][]tree.NodeID) []Cursor {
	out := make([]Cursor, len(parts))
	for i, p := range parts {
		out[i] = NewSliceCursor(p)
	}
	return out
}
