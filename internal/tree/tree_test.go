package tree

import (
	"math"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/xmlgen"
)

const sample = `<site><people>` +
	`<person id="person0"><name>Ada</name><emailaddress>a@x</emailaddress></person>` +
	`<person id="person1"><name>Bob</name><emailaddress>b@x</emailaddress><homepage>h</homepage></person>` +
	`</people></site>`

func mustParse(t *testing.T, doc string) *Doc {
	t.Helper()
	d, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return d
}

func TestBasicStructure(t *testing.T) {
	d := mustParse(t, sample)
	root := d.Root()
	if d.Tag(root) != "site" {
		t.Fatalf("root tag = %q", d.Tag(root))
	}
	people := d.FirstChild(root)
	if d.Tag(people) != "people" {
		t.Fatalf("first child = %q", d.Tag(people))
	}
	var persons []NodeID
	persons = d.ChildElements(people, d.TagSymbol("person"), persons)
	if len(persons) != 2 {
		t.Fatalf("persons = %d", len(persons))
	}
	id0, ok := d.Attr(persons[0], "id")
	if !ok || id0 != "person0" {
		t.Fatalf("person0 id = %q, %v", id0, ok)
	}
	name := d.FirstChild(persons[0])
	if d.Tag(name) != "name" || d.StringValue(name) != "Ada" {
		t.Fatalf("name = %q %q", d.Tag(name), d.StringValue(name))
	}
}

func TestDocumentOrderAndContainment(t *testing.T) {
	d := mustParse(t, sample)
	root := d.Root()
	people := d.FirstChild(root)
	var persons []NodeID
	persons = d.ChildElements(people, -1, persons)
	if !(persons[0] < persons[1]) {
		t.Fatal("document order not reflected in NodeIDs")
	}
	if !d.IsAncestor(root, persons[1]) || !d.IsAncestor(people, persons[0]) {
		t.Fatal("IsAncestor failed for true ancestor")
	}
	if d.IsAncestor(persons[0], persons[1]) {
		t.Fatal("siblings reported as ancestor")
	}
	if d.IsAncestor(persons[0], persons[0]) {
		t.Fatal("node reported as its own ancestor")
	}
	// Subtree extent of person0 covers exactly its descendants.
	endP0 := d.SubtreeEnd(persons[0])
	if endP0 != persons[1] {
		t.Fatalf("SubtreeEnd(person0) = %d, want %d", endP0, persons[1])
	}
}

func TestParentNavigation(t *testing.T) {
	d := mustParse(t, sample)
	people := d.FirstChild(d.Root())
	var persons []NodeID
	persons = d.ChildElements(people, -1, persons)
	if d.Parent(persons[0]) != people || d.Parent(people) != d.Root() {
		t.Fatal("Parent navigation broken")
	}
	if d.Parent(d.Root()) != Nil {
		t.Fatal("root has a parent")
	}
}

func TestDescendantElements(t *testing.T) {
	d := mustParse(t, sample)
	var names []NodeID
	names = d.DescendantElements(d.Root(), d.TagSymbol("name"), names)
	if len(names) != 2 {
		t.Fatalf("descendant names = %d", len(names))
	}
	var all []NodeID
	all = d.DescendantElements(d.Root(), -1, all)
	if len(all) != 8 { // people, 2 persons, 2 names, 2 emails, 1 homepage
		t.Fatalf("descendant elements = %d", len(all))
	}
}

func TestStringValueConcatenation(t *testing.T) {
	d := mustParse(t, `<a>x<b>y</b>z</a>`)
	if sv := d.StringValue(d.Root()); sv != "xyz" {
		t.Fatalf("StringValue = %q", sv)
	}
}

func TestTagSymbolUnknown(t *testing.T) {
	d := mustParse(t, sample)
	if d.TagSymbol("zebra") != -1 {
		t.Fatal("unknown tag has a symbol")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	docs := []string{
		sample,
		`<a>x<b>y</b>z</a>`,
		`<a t="1&amp;2"><c/>tail</a>`,
	}
	for _, doc := range docs {
		d := mustParse(t, doc)
		out := d.SerializeString(d.Root())
		d2, err := Parse([]byte(out))
		if err != nil {
			t.Fatalf("reserialized doc unparsable: %v\n%s", err, out)
		}
		if d2.SerializeString(d2.Root()) != out {
			t.Fatalf("serialization not a fixed point:\n%s\nvs\n%s", out, d2.SerializeString(d2.Root()))
		}
	}
}

func TestSerializeEscaping(t *testing.T) {
	d := mustParse(t, `<a t="&lt;&quot;">a &amp; b</a>`)
	out := d.SerializeString(d.Root())
	if !strings.Contains(out, `t="&lt;&quot;"`) || !strings.Contains(out, "a &amp; b") {
		t.Fatalf("escaping lost: %s", out)
	}
}

func TestWhitespaceOnlyTextDropped(t *testing.T) {
	d := mustParse(t, "<a>\n  <b>x</b>\n</a>")
	for c := d.FirstChild(d.Root()); c != Nil; c = d.NextSibling(c) {
		if d.Kind(c) == Text {
			t.Fatalf("whitespace text survived: %q", d.Text(c))
		}
	}
}

func TestAttrAfterChildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b := NewBuilder()
	b.Start("a")
	b.Text("x")
	b.Attr("late", "1")
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Start("a")
	if _, err := b.Doc(); err == nil {
		t.Fatal("unclosed element accepted")
	}
	if _, err := NewBuilder().Doc(); err == nil {
		t.Fatal("empty document accepted")
	}
}

// TestTextHeapLimit hits the offset-width guard without a 2 GiB document:
// a heap one byte past the limit is a Doc() error, one at the limit loads.
func TestTextHeapLimit(t *testing.T) {
	build := func(limit int) (*Doc, error) {
		b := NewBuilder()
		b.maxText = limit
		b.Start("a")
		b.Text("12345")
		b.Start("b")
		b.Text("678")
		b.End()
		b.End()
		return b.Doc()
	}
	if _, err := build(7); err == nil || !strings.Contains(err.Error(), "text heap limit") {
		t.Fatalf("8 bytes of text under a 7-byte limit: err = %v", err)
	}
	d, err := build(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.StringValue(d.Root()); got != "12345678" {
		t.Fatalf("string value %q", got)
	}
	if NewBuilder().maxText != math.MaxInt32 {
		t.Fatal("default limit is not what int32 offsets address")
	}
}

// TestTextHeapSpans pins the layout on adjacent text nodes and empty
// elements: every node's Text and StringValue are slices of one heap.
func TestTextHeapSpans(t *testing.T) {
	b := NewBuilder()
	b.Start("a") // 0
	b.Text("x")  // 1
	b.Text("yz") // 2
	b.Start("e") // 3
	b.End()
	b.Start("b") // 4
	b.Text("ü")  // 5
	b.End()
	b.End()
	d, err := b.Doc()
	if err != nil {
		t.Fatal(err)
	}
	wantText := []string{"", "x", "yz", "", "", "ü"}
	wantValue := []string{"xyzü", "x", "yz", "", "ü", "ü"}
	for n := NodeID(0); int(n) < d.Len(); n++ {
		if d.Text(n) != wantText[n] || d.StringValue(n) != wantValue[n] {
			t.Fatalf("node %d: Text %q StringValue %q, want %q %q",
				n, d.Text(n), d.StringValue(n), wantText[n], wantValue[n])
		}
	}
	h := d.TextHeap()
	if h.Span(0, NodeID(d.Len())) != "xyzü" || h.SizeBytes() != int64(len("xyzü")+4*(d.Len()+1)) {
		t.Fatalf("heap %q, %d bytes", h.Span(0, NodeID(d.Len())), h.SizeBytes())
	}
}

// docAdapter bridges tree nodes to schema.InstanceNode for validation.
type docAdapter struct {
	d *Doc
	n NodeID
}

func (a docAdapter) ElemName() string { return a.d.Tag(a.n) }
func (a docAdapter) ChildElements() []schema.InstanceNode {
	var out []schema.InstanceNode
	for c := a.d.FirstChild(a.n); c != Nil; c = a.d.NextSibling(c) {
		if a.d.Kind(c) == Element {
			out = append(out, docAdapter{a.d, c})
		}
	}
	return out
}
func (a docAdapter) AttrNames() []string {
	var out []string
	for _, at := range a.d.Attrs(a.n) {
		out = append(out, at.Name)
	}
	return out
}

func TestGeneratedDocumentValidatesAgainstDTD(t *testing.T) {
	// End-to-end: the generator's output must conform to the published DTD.
	doc := xmlgen.New(xmlgen.Options{Factor: 0.004}).String()
	d := mustParse(t, doc)
	if err := schema.Validate(docAdapter{d, d.Root()}); err != nil {
		t.Fatalf("generated document violates DTD: %v", err)
	}
}

func TestSubtreeExtentsPartitionGeneratedDoc(t *testing.T) {
	// Property over a real document: for every node, the subtree extent
	// equals 1 + sum of child extents, and children lie inside the extent.
	doc := xmlgen.New(xmlgen.Options{Factor: 0.002}).String()
	d := mustParse(t, doc)
	for n := NodeID(0); int(n) < d.Len(); n++ {
		covered := n + 1
		for c := d.FirstChild(n); c != Nil; c = d.NextSibling(c) {
			if c != covered {
				t.Fatalf("node %d: child %d does not start at %d", n, c, covered)
			}
			covered = d.SubtreeEnd(c)
		}
		if covered != d.SubtreeEnd(n) {
			t.Fatalf("node %d: children cover to %d, extent says %d", n, covered, d.SubtreeEnd(n))
		}
	}
}
