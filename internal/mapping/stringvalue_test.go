package mapping_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestore"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlgen"
)

// naiveStringValue is the oracle: the XPath string value by recursive
// descent over Children and Text, with no knowledge of the text heap.
func naiveStringValue(s nodestore.Store, n tree.NodeID) string {
	if s.Kind(n) == tree.Text {
		return s.Text(n)
	}
	var b strings.Builder
	for _, c := range s.Children(n, nil) {
		b.WriteString(naiveStringValue(s, c))
	}
	return b.String()
}

// checkStringValues loads xml into the DOM store and the three relational
// mappings and checks, for every node of each, StringValue against the
// oracle, and on the inlined mapping every inlined child value against the
// child's string value. wantText, when given, is the expected Text of
// every node in document order. It returns how many inlined values were
// of mixed-content children, whose string value spans several text nodes.
func checkStringValues(t *testing.T, label string, xml []byte, wantText []string) (mixed int) {
	t.Helper()
	doc, err := tree.Parse(xml)
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, xml)
	}
	if wantText != nil && doc.Len() != len(wantText) {
		t.Fatalf("%s: parsed %d nodes, generated %d\n%s", label, doc.Len(), len(wantText), xml)
	}
	for _, s := range []nodestore.Store{
		nodestore.NewDOM("dom", doc, nodestore.DOMOptions{}),
		mapping.NewEdge(doc), mapping.NewPath(doc), mapping.NewInline(doc),
	} {
		for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
			if wantText != nil && s.Text(n) != wantText[n] {
				t.Fatalf("%s/%s: node %d Text %q, want %q\n%s", label, s.Name(), n, s.Text(n), wantText[n], xml)
			}
			if got, want := s.StringValue(n), naiveStringValue(s, n); got != want {
				t.Fatalf("%s/%s: node %d StringValue %q, want %q", label, s.Name(), n, got, want)
			}
			if s.Name() == "inline" && s.Kind(n) == tree.Element {
				mixed += checkInlined(t, label, s, n)
			}
		}
	}
	return mixed
}

// checkInlined checks every inlined column of element n against the
// string value of the child it inlines (the last child with that tag) and
// returns how many of those children have mixed content.
func checkInlined(t *testing.T, label string, s nodestore.Store, n tree.NodeID) (mixed int) {
	t.Helper()
	for _, c := range s.Children(n, nil) {
		if s.Kind(c) != tree.Element {
			continue
		}
		v, ok, supported := s.InlinedChildText(n, s.Tag(c))
		if !supported {
			continue
		}
		same := s.ChildrenByTag(n, s.Tag(c), nil)
		if want := s.StringValue(same[len(same)-1]); !ok || v != want {
			t.Fatalf("%s/%s: node %d inlines %s as %q (ok=%v), want %q", label, s.Name(), n, s.Tag(c), v, ok, want)
		}
		if kids := s.Children(c, nil); len(kids) > 1 || len(kids) == 1 && s.Kind(kids[0]) == tree.Element {
			mixed++
		}
	}
	return mixed
}

// docGen writes a random document as XML text and records what Text(n)
// must return for every node the parser will create.
type docGen struct {
	r     *rand.Rand
	xml   strings.Builder
	texts []string
}

// Tags the auction DTD knows (so the inlined mapping builds its columns,
// in shapes the DTD does not promise) beside tags it does not.
var genTags = []string{"site", "person", "name", "description", "text", "keyword", "bold", "item", "x", "y"}

// Character-data pieces as written and as parsed: entity and character
// references decode, non-ASCII passes through.
var genPieces = [][2]string{
	{"gold", "gold"}, {"alpha beta", "alpha beta"}, {"grüße", "grüße"}, {"日本語", "日本語"},
	{"&amp;", "&"}, {"&lt;b&gt;", "<b>"}, {"&#233;", "é"}, {"&#x4e2d;", "中"}, {" ", " "}, {"\n\t", "\n\t"},
}

func (g *docGen) element(depth int) {
	tag := genTags[g.r.Intn(len(genTags))]
	g.texts = append(g.texts, "")
	g.xml.WriteString("<" + tag)
	if g.r.Intn(3) == 0 {
		fmt.Fprintf(&g.xml, ` id="v%d&amp;"`, g.r.Intn(4))
	}
	kids := g.r.Intn(6)
	switch {
	case depth == 0:
		kids += 3
	case depth >= 5:
		kids = 0
	}
	if kids == 0 {
		if g.r.Intn(2) == 0 {
			g.xml.WriteString("/>")
		} else {
			g.xml.WriteString("></" + tag + ">")
		}
		return
	}
	g.xml.WriteString(">")
	// Two character-data runs with no markup between them parse as one
	// node, so a run never follows a run; CDATA sections are markup and
	// make adjacent text nodes.
	afterRun := false
	for i := 0; i < kids; i++ {
		switch k := g.r.Intn(6); {
		case k <= 1:
			g.element(depth + 1)
			afterRun = false
		case k == 2 && !afterRun:
			g.xml.WriteString(" \n\t") // whitespace-only: dropped by tree.Parse
			afterRun = true
		case k == 3 && !afterRun:
			raw, parsed := "w", "w"
			for j := g.r.Intn(4); j > 0; j-- {
				p := genPieces[g.r.Intn(len(genPieces))]
				raw, parsed = raw+p[0], parsed+p[1]
			}
			g.xml.WriteString(raw)
			g.texts = append(g.texts, parsed)
			afterRun = true
		case k >= 4:
			text := fmt.Sprintf("c%d <raw> & ü", g.r.Intn(10))
			g.xml.WriteString("<![CDATA[" + text + "]]>")
			g.texts = append(g.texts, text)
			afterRun = false
		}
	}
	g.xml.WriteString("</" + tag + ">")
}

// TestStringValueProperty is the text heap's correctness argument: on
// every store kind, for every node, the O(1) span equals the recursive
// concatenation — over random documents (mixed content, empty elements,
// adjacent text nodes, decoded entities, non-ASCII, dropped whitespace),
// over a generated auction document, and over shard-territory documents
// (each merged shard document is parsed on its own and owns its own heap).
func TestStringValueProperty(t *testing.T) {
	// System C inlines a person's name as a column of the person relation;
	// a name with markup inside is mixed content, and the column holds its
	// whole string value, which no single text node carries.
	const mixedName = `<site><people><person id="p0"><name>Ann <bold>B.</bold> Lee</name></person></people></site>`
	if checkStringValues(t, "inlined mixed content", []byte(mixedName), nil) != 1 {
		t.Fatal("the inlined mapping does not inline the mixed-content name")
	}
	r := rand.New(rand.NewSource(14))
	mixed := 0
	for i := 0; i < 200; i++ {
		g := &docGen{r: r}
		g.element(0)
		mixed += checkStringValues(t, fmt.Sprintf("random %d", i), []byte(g.xml.String()), g.texts)
	}
	if mixed == 0 {
		t.Fatal("no random document has an inlined mixed-content child")
	}

	const factor = 0.002
	checkStringValues(t, "generated", []byte(xmlgen.New(xmlgen.Options{Factor: factor}).String()), nil)

	for i, merged := range shardDocs(t, factor) {
		checkStringValues(t, fmt.Sprintf("shard %d", i), merged, nil)
	}
}

// shardDocs splits the generated document ten ways and merges each half of
// the files into one shard-territory document, as a two-shard deployment
// loads them.
func shardDocs(t *testing.T, factor float64) [][]byte {
	t.Helper()
	files := map[string]*bytes.Buffer{}
	err := xmlgen.New(xmlgen.Options{Factor: factor}).WriteSplit(10, func(name string) (io.WriteCloser, error) {
		files[name] = &bytes.Buffer{}
		return nopCloser{files[name]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var docs [][]byte
	for _, run := range [][]string{names[:len(names)/2], names[len(names)/2:]} {
		group := map[string][]byte{}
		for _, name := range run {
			group[name] = files[name].Bytes()
		}
		merged, err := xmark.MergeCollection(group)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, merged)
	}
	return docs
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
