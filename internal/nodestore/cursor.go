package nodestore

import "repro/internal/tree"

// Cursor is a pull cursor over node identifiers in document order: the
// storage-layer end of the engine's Volcano-style pipeline. A Cursor is
// single-use; obtain a fresh one for every traversal.
type Cursor interface {
	// Next returns the next node and true, or tree.Nil and false when the
	// cursor is exhausted.
	Next() (tree.NodeID, bool)
}

// SliceCursor adapts a materialized id slice to the Cursor interface
// without copying it.
type SliceCursor struct {
	ids []tree.NodeID
	i   int
}

// NewSliceCursor returns a cursor over ids. The slice is not copied; the
// caller must not modify it while the cursor is live.
func NewSliceCursor(ids []tree.NodeID) *SliceCursor { return &SliceCursor{ids: ids} }

// Next implements Cursor.
func (c *SliceCursor) Next() (tree.NodeID, bool) {
	if c.i >= len(c.ids) {
		return tree.Nil, false
	}
	id := c.ids[c.i]
	c.i++
	return id, true
}

// EmptyCursor is a cursor over nothing.
type EmptyCursor struct{}

// Next implements Cursor.
func (EmptyCursor) Next() (tree.NodeID, bool) { return tree.Nil, false }
