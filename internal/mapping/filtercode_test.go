package mapping

import (
	"fmt"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
)

// TestFilterMemoRecompilesRewrittenList pins the per-step filter memo of
// the relational mappings: a filter list rewritten in place (same address)
// is recompiled rather than answered from the stale entry, and more
// distinct lists than the memo holds keep answering correctly while the
// memo stays bounded.
func TestFilterMemoRecompilesRewrittenList(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	people := ref.ChildrenByTag(ref.Root(), "people", nil)[0]
	persons := ref.ChildrenByTag(people, "person", nil)
	if len(persons) < 3 {
		t.Fatalf("document has %d persons", len(persons))
	}
	want := func(id string) []tree.NodeID {
		var out []tree.NodeID
		for _, p := range persons {
			if v, _ := ref.Attr(p, "id"); v == id {
				out = append(out, p)
			}
		}
		return out
	}
	probe := func(t *testing.T, s nodestore.Store, fs []nodestore.ValueFilter) {
		t.Helper()
		cur, ok := s.ChildrenByTagFilteredCursor(people, "person", fs)
		if !ok {
			t.Fatal("filtered cursor declined")
		}
		var got []tree.NodeID
		for id, ok := cur.Next(); ok; id, ok = cur.Next() {
			got = append(got, id)
		}
		if w := want(fs[0].Value); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("@id = %q: got %v, want %v", fs[0].Value, got, w)
		}
	}
	memoSize := func(s nodestore.Store) int32 {
		switch s := s.(type) {
		case *Edge:
			return s.filters.n.Load()
		case *Path:
			return s.filters.n.Load()
		}
		return 0
	}
	for _, s := range stores {
		t.Run(s.Name(), func(t *testing.T) {
			fs := []nodestore.ValueFilter{{Attr: "id", Op: nodestore.CmpEq, Value: "person0"}}
			probe(t, s, fs)
			fs[0].Value = "person1"
			probe(t, s, fs)
			for i := 0; i < filterMemoCap+10; i++ {
				probe(t, s, []nodestore.ValueFilter{{Attr: "id", Op: nodestore.CmpEq, Value: fmt.Sprintf("person%d", i%3)}})
			}
			if n := memoSize(s); n > filterMemoCap {
				t.Errorf("memo holds %d lists, bound %d", n, filterMemoCap)
			}
		})
	}
}
