package tree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// randTree is a generated random document for property-based round-trip
// testing. It implements quick.Generator.
type randTree struct {
	xml string
}

var rtTags = []string{"a", "b", "c", "item", "name", "text"}
var rtAttrs = []string{"id", "k", "person"}
var rtTexts = []string{"x", "hello world", "1 < 2 & 3", `quote"quote`, "  spaced  "}

// Generate builds a random well-formed document.
func (randTree) Generate(r *rand.Rand, size int) reflect.Value {
	var b strings.Builder
	var emit func(depth int)
	emit = func(depth int) {
		tag := rtTags[r.Intn(len(rtTags))]
		b.WriteByte('<')
		b.WriteString(tag)
		for i := 0; i < r.Intn(3); i++ {
			// Attribute names must be unique within a tag.
			b.WriteByte(' ')
			b.WriteString(rtAttrs[i])
			b.WriteString(`="`)
			b.WriteString(naiveEscapeAttr(rtTexts[r.Intn(len(rtTexts))]))
			b.WriteByte('"')
		}
		kids := r.Intn(4)
		if depth > 4 {
			kids = 0
		}
		if kids == 0 && r.Intn(2) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		for i := 0; i < kids; i++ {
			if r.Intn(2) == 0 {
				b.WriteString(naiveEscapeText(rtTexts[r.Intn(len(rtTexts))]))
			}
			emit(depth + 1)
		}
		b.WriteString("</")
		b.WriteString(tag)
		b.WriteByte('>')
	}
	emit(0)
	return reflect.ValueOf(randTree{xml: b.String()})
}

// TestSerializeParseRoundTripProperty: parse(serialize(parse(doc))) equals
// parse(doc) for random documents.
func TestSerializeParseRoundTripProperty(t *testing.T) {
	f := func(rt randTree) bool {
		d1, err := Parse([]byte(rt.xml))
		if err != nil {
			t.Logf("generated doc unparsable: %v\n%s", err, rt.xml)
			return false
		}
		out := d1.SerializeString(d1.Root())
		d2, err := Parse([]byte(out))
		if err != nil {
			t.Logf("serialized doc unparsable: %v\n%s", err, out)
			return false
		}
		return docsEqual(d1, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// docsEqual compares two documents structurally. Whitespace-only text is
// dropped by Parse, so both sides saw the same normalization.
func docsEqual(a, b *Doc) bool {
	if a.Len() != b.Len() {
		return false
	}
	for n := NodeID(0); int(n) < a.Len(); n++ {
		if a.Kind(n) != b.Kind(n) || a.Tag(n) != b.Tag(n) || a.Text(n) != b.Text(n) {
			return false
		}
		if a.Parent(n) != b.Parent(n) || a.SubtreeEnd(n) != b.SubtreeEnd(n) {
			return false
		}
		aa, ba := a.Attrs(n), b.Attrs(n)
		if len(aa) != len(ba) {
			return false
		}
		for i := range aa {
			if aa[i] != ba[i] {
				return false
			}
		}
	}
	return true
}

// TestStringValuePropertyAgainstSerialization: the string value of any node
// equals the serialized subtree with all markup removed (after entity
// decoding), for random documents.
func TestStringValuePropertyAgainstSerialization(t *testing.T) {
	f := func(rt randTree) bool {
		d, err := Parse([]byte(rt.xml))
		if err != nil {
			return false
		}
		for n := NodeID(0); int(n) < d.Len(); n++ {
			want := collectText(d, n)
			if d.StringValue(n) != want {
				t.Logf("node %d: StringValue %q != collected %q", n, d.StringValue(n), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func collectText(d *Doc, n NodeID) string {
	if d.Kind(n) == Text {
		return d.Text(n)
	}
	var b strings.Builder
	for c := d.FirstChild(n); c != Nil; c = d.NextSibling(c) {
		b.WriteString(collectText(d, c))
	}
	return b.String()
}
