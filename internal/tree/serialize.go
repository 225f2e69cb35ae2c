package tree

import "io"

// Serialize writes the subtree rooted at n as XML to w. It is the
// reconstruction primitive of query Q13: regenerating original document
// fragments from the broken-down representation. The write is one
// AppendSubtree walk followed by a single w.Write.
func (d *Doc) Serialize(w io.Writer, n NodeID) error {
	_, err := w.Write(d.AppendSubtree(nil, n))
	return err
}

// SerializeString returns the subtree rooted at n as an XML string.
func (d *Doc) SerializeString(n NodeID) string {
	return string(d.AppendSubtree(nil, n))
}
