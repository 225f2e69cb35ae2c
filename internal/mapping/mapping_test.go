package mapping

import (
	"sort"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
	"repro/internal/xmlgen"
)

// buildAll loads one generated document into every mapping plus the
// reference DOM store.
func buildAll(t *testing.T, factor float64) (ref *nodestore.DOM, stores []nodestore.Store) {
	t.Helper()
	doc, err := tree.Parse([]byte(xmlgen.New(xmlgen.Options{Factor: factor}).String()))
	if err != nil {
		t.Fatal(err)
	}
	ref = nodestore.NewDOM("ref", doc, nodestore.DOMOptions{Summary: true, TagExtents: true, AttrIndexes: true})
	return ref, []nodestore.Store{NewEdge(doc), NewPath(doc), NewInline(doc)}
}

func TestAttrLookupAgreement(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	for _, probe := range []struct{ name, value string }{
		{"id", "person0"},
		{"id", "item3"},
		{"person", "person1"},
		{"category", "category0"},
		{"id", "no_such_value"},
		{"no_such_attr", "x"},
	} {
		want, ok := ref.AttrLookup(probe.name, probe.value)
		if !ok {
			t.Fatal("reference store lacks attribute index")
		}
		for _, s := range stores {
			got, ok := s.AttrLookup(probe.name, probe.value)
			if !ok {
				t.Fatalf("%s: AttrLookup unsupported", s.Name())
			}
			if !equalIDs(got, want) {
				t.Fatalf("%s: AttrLookup(%s=%s) = %v, want %v", s.Name(), probe.name, probe.value, got, want)
			}
		}
	}
}

// TestStoresAgreeWithDOM differentially tests every mapping against the
// reference DOM on all Store operations over every node of a generated
// document. This is the core correctness argument for the relational
// backends: same answers, different access paths.
func TestStoresAgreeWithDOM(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	doc := ref.Doc()
	for _, s := range stores {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			if s.Root() != ref.Root() {
				t.Fatal("root differs")
			}
			for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
				if s.Kind(n) != ref.Kind(n) {
					t.Fatalf("node %d: kind %v != %v", n, s.Kind(n), ref.Kind(n))
				}
				if s.Tag(n) != ref.Tag(n) {
					t.Fatalf("node %d: tag %q != %q", n, s.Tag(n), ref.Tag(n))
				}
				if s.Text(n) != ref.Text(n) {
					t.Fatalf("node %d: text differs", n)
				}
				if s.Parent(n) != ref.Parent(n) {
					t.Fatalf("node %d: parent %d != %d", n, s.Parent(n), ref.Parent(n))
				}
				if s.SubtreeEnd(n) != ref.SubtreeEnd(n) {
					t.Fatalf("node %d: end %d != %d", n, s.SubtreeEnd(n), ref.SubtreeEnd(n))
				}
				if got, want := s.Children(n, nil), ref.Children(n, nil); !equalIDs(got, want) {
					t.Fatalf("node %d: children %v != %v", n, got, want)
				}
				if ref.Kind(n) == tree.Element {
					tag := ref.Tag(n)
					if got, want := s.ChildrenByTag(n, tag, nil), ref.ChildrenByTag(n, tag, nil); !equalIDs(got, want) {
						t.Fatalf("node %d: childrenByTag differ", n)
					}
					for _, a := range ref.Attrs(n) {
						v, ok := s.Attr(n, a.Name)
						if !ok || v != a.Value {
							t.Fatalf("node %d: attr %s = %q,%v want %q", n, a.Name, v, ok, a.Value)
						}
					}
					if _, ok := s.Attr(n, "no_such_attr"); ok {
						t.Fatalf("node %d: phantom attribute", n)
					}
					if !equalAttrs(s.Attrs(n), ref.Attrs(n)) {
						t.Fatalf("node %d: Attrs differ: %v vs %v", n, s.Attrs(n), ref.Attrs(n))
					}
				}
			}
		})
	}
}

// TestStringValueZeroAlloc pins the text-heap contract on every store
// kind: the string value of a mixed-content description (several text
// nodes under nested markup) is a slice, not a concatenation.
func TestStringValueZeroAlloc(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	doc := ref.Doc()
	desc := tree.Nil
	for _, n := range doc.DescendantElements(doc.Root(), doc.TagSymbol("description"), nil) {
		texts := 0
		for k := n + 1; k < doc.SubtreeEnd(n); k++ {
			if doc.Kind(k) == tree.Text {
				texts++
			}
		}
		if texts >= 3 {
			desc = n
			break
		}
	}
	if desc == tree.Nil {
		t.Fatal("no mixed-content description in the document")
	}
	want := doc.StringValue(desc)
	for _, s := range append(stores, nodestore.Store(ref)) {
		var got string
		allocs := testing.AllocsPerRun(100, func() { got = s.StringValue(desc) })
		if got != want {
			t.Fatalf("%s: StringValue %q, want %q", s.Name(), got, want)
		}
		if allocs != 0 {
			t.Errorf("%s: StringValue allocates %.0f times per call", s.Name(), allocs)
		}
	}
}

func TestTagExtentAgreement(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	for _, tag := range []string{"item", "person", "keyword", "text", "bidder", "increase", "homepage", "no_such_tag"} {
		want, ok := ref.TagExtent(tag, nil)
		if !ok {
			t.Fatal("reference store lacks tag extents")
		}
		for _, s := range stores {
			got, ok := s.TagExtent(tag, nil)
			if !ok {
				t.Fatalf("%s: TagExtent unsupported", s.Name())
			}
			if !equalIDs(got, want) {
				t.Fatalf("%s: extent of %q: %d nodes, want %d", s.Name(), tag, len(got), len(want))
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("%s: extent of %q not in document order", s.Name(), tag)
			}
		}
	}
}

// TestPathTagExtentMergesFragments pins the fragment merge: a tag that
// ends several label paths (item under six regions, text and keyword under
// every description shape) comes back in document order behind whatever
// the caller's buffer already held, and so do its partitions; a tag with
// one fragment takes the no-sort path to the same answer.
func TestPathTagExtentMergesFragments(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	for _, s := range stores[1:] {
		p := s.(*Path)
		for _, tag := range []string{"item", "text", "keyword", "person"} {
			if multi := tag != "person"; (len(p.byTag[tag]) > 1) != multi {
				t.Fatalf("%s: <%s> has %d fragments", p.Name(), tag, len(p.byTag[tag]))
			}
			want, _ := ref.TagExtent(tag, []tree.NodeID{9, 7})
			got, _ := p.TagExtent(tag, []tree.NodeID{9, 7})
			assertSameIDs(t, got, want, p.Name()+" "+tag)
			parts, ok := p.TagExtentPartitions(tag, 3)
			if !ok {
				t.Fatalf("%s: <%s> not splittable", p.Name(), tag)
			}
			assertSameIDs(t, drainPartsCur(t, parts), want[2:], p.Name()+" "+tag+" partitions")
		}
	}
}

func TestDescendantsAgreement(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	doc := ref.Doc()
	regions := doc.ChildElements(doc.Root(), doc.TagSymbol("regions"), nil)
	cases := []struct {
		n   tree.NodeID
		tag string
	}{
		{doc.Root(), "item"},
		{doc.Root(), "keyword"},
		{regions[0], "item"},
		{regions[0], "name"},
	}
	for _, c := range cases {
		want := ref.Descendants(c.n, c.tag, nil)
		for _, s := range stores {
			got := s.Descendants(c.n, c.tag, nil)
			if !equalIDs(got, want) {
				t.Fatalf("%s: descendants(%d, %s) = %d nodes, want %d", s.Name(), c.n, c.tag, len(got), len(want))
			}
		}
	}
}

func TestPathExtent(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	path := []string{"site", "people", "person"}
	want, _ := ref.PathExtent(path, nil)
	for _, s := range stores {
		got, ok := s.PathExtent(path, nil)
		if s.Name() == "edge" {
			if ok {
				t.Fatal("edge store claims path support")
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: PathExtent unsupported", s.Name())
		}
		if !equalIDs(got, want) {
			t.Fatalf("%s: path extent %d nodes, want %d", s.Name(), len(got), len(want))
		}
		// Non-existing path is provably empty from the catalog.
		empty, ok := s.PathExtent([]string{"site", "nope"}, nil)
		if !ok || len(empty) != 0 {
			t.Fatalf("%s: non-existing path extent = %v, %v", s.Name(), empty, ok)
		}
	}
}

func TestInlinedChildText(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	var inline, path nodestore.Store
	for _, s := range stores {
		switch s.Name() {
		case "inline":
			inline = s
		case "path":
			path = s
		}
	}
	doc := ref.Doc()
	persons, _ := ref.PathExtent([]string{"site", "people", "person"}, nil)
	checked := 0
	for _, p := range persons {
		// name is a mandatory PCDATA single child: must be inlined.
		v, ok, supported := inline.InlinedChildText(p, "name")
		if !supported {
			t.Fatal("inline store reports no inlining for person")
		}
		if !ok {
			t.Fatalf("person %d missing inlined name", p)
		}
		names := doc.ChildElements(p, doc.TagSymbol("name"), nil)
		if want := doc.StringValue(names[0]); v != want {
			t.Fatalf("inlined name %q != %q", v, want)
		}
		// homepage is optional: presence flag must match the document.
		hv, hok, _ := inline.InlinedChildText(p, "homepage")
		hps := doc.ChildElements(p, doc.TagSymbol("homepage"), nil)
		if hok != (len(hps) == 1) {
			t.Fatalf("person %d: inlined homepage presence %v, want %v", p, hok, len(hps) == 1)
		}
		if hok {
			if want := doc.StringValue(hps[0]); hv != want {
				t.Fatalf("inlined homepage %q != %q", hv, want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no persons checked")
	}
	// The plain path store must report no inlining support.
	if _, _, supported := path.InlinedChildText(persons[0], "name"); supported {
		t.Fatal("path store claims inlining")
	}
}

func TestStats(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	for _, s := range append(stores, nodestore.Store(ref)) {
		st := s.Stats()
		if st.SizeBytes <= 0 {
			t.Errorf("%s: non-positive size", st.Name)
		}
		if st.Nodes != ref.Doc().Len() {
			t.Errorf("%s: nodes = %d, want %d", st.Name, st.Nodes, ref.Doc().Len())
		}
	}
	// The fragmenting mapping must have many tables; the edge mapping one.
	for _, s := range stores {
		st := s.Stats()
		switch st.Name {
		case "edge":
			if st.Tables != 1 {
				t.Errorf("edge tables = %d", st.Tables)
			}
		case "path", "inline":
			if st.Tables < 50 {
				t.Errorf("%s tables = %d, want many", st.Name, st.Tables)
			}
		}
	}
}

func equalAttrs(a, b []tree.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalIDs(a, b []tree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
