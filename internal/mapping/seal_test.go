package mapping

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/tree"
	"repro/internal/xmlgen"
)

// TestLoadSealsColumns pins that a loaded relational store keeps no append
// slack: every column of every table, and the path mapping's clustered id
// columns, have capacity equal to their length.
func TestLoadSealsColumns(t *testing.T) {
	doc, err := tree.Parse([]byte(xmlgen.New(xmlgen.Options{Factor: 0.01}).String()))
	if err != nil {
		t.Fatal(err)
	}
	check := func(store string, tab *relational.Table) {
		t.Helper()
		for c, col := range tab.Schema {
			var capacity int
			if col.T == relational.Float {
				capacity = cap(tab.FloatCol(c))
			} else {
				capacity = cap(tab.IntCol(c))
			}
			if capacity != tab.Len() {
				t.Errorf("%s: %s.%s has cap %d for %d rows", store, tab.Name, col.Name, capacity, tab.Len())
			}
		}
	}
	check("edge", NewEdge(doc).table)
	for _, s := range []*Path{NewPath(doc), NewInline(doc)} {
		for _, pt := range s.entries {
			check(s.name, pt.table)
			if cap(pt.ids) != len(pt.ids) {
				t.Errorf("%s: %s ids have cap %d for %d rows", s.name, pt.path, cap(pt.ids), len(pt.ids))
			}
			for _, at := range pt.attrs {
				check(s.name, at.table)
			}
		}
	}
}
