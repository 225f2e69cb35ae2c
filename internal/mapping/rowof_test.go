package mapping_test

import (
	"testing"

	"repro/internal/mapping"
	"repro/internal/tree"
	"repro/internal/xmlgen"
)

// TestRowOfEveryNode pins the node → row step under every navigation call
// of the relational stores: for every node (and, on the heap, every
// synthetic attribute id) rowOf lands on the row whose id column is that
// node, over a generated document and two shard-territory documents.
func TestRowOfEveryNode(t *testing.T) {
	const factor = 0.002
	docs := append([][]byte{[]byte(xmlgen.New(xmlgen.Options{Factor: factor}).String())}, shardDocs(t, factor)...)
	for i, xml := range docs {
		doc, err := tree.Parse(xml)
		if err != nil {
			t.Fatal(err)
		}
		edge := mapping.NewEdge(doc)
		if edge.Rows() <= doc.Len() {
			t.Fatalf("doc %d: no attribute rows to check", i)
		}
		for n := tree.NodeID(0); int(n) < edge.Rows(); n++ {
			if id, ok := edge.RowID(n); !ok || id != int64(n) {
				t.Fatalf("doc %d edge: rowOf(%d) is the row of %d (found %v)", i, n, id, ok)
			}
		}
		for _, n := range []tree.NodeID{tree.Nil, tree.NodeID(edge.Rows())} {
			if _, ok := edge.RowID(n); ok {
				t.Fatalf("doc %d edge: rowOf(%d) found a row", i, n)
			}
		}
		for _, s := range []*mapping.Path{mapping.NewPath(doc), mapping.NewInline(doc)} {
			for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
				if id := s.RowID(n); id != int64(n) {
					t.Fatalf("doc %d %s: rowOf(%d) is the row of %d", i, s.Name(), n, id)
				}
			}
		}
	}
}
