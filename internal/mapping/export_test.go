package mapping

import "repro/internal/tree"

// RowID is the id column of the heap row rowOf finds for n, for the
// external test package (which may import xmark for shard documents).
func (s *Edge) RowID(n tree.NodeID) (int64, bool) {
	r, ok := s.rowOf(n)
	if !ok {
		return 0, false
	}
	return int64(s.ids[r]), true
}

// Rows is the heap's row count: ids at and above the node count are the
// synthetic attribute ids.
func (s *Edge) Rows() int { return s.table.Len() }

// RowID is the id column of the fragment row rowOf finds for n.
func (s *Path) RowID(n tree.NodeID) int64 {
	pt, row := s.rowOf(n)
	return pt.table.Int(row, pID)
}
