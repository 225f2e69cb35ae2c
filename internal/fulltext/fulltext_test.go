package fulltext

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestore"
	"repro/internal/tree"
	"repro/internal/xmlgen"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"...!?,;--", nil},
		{"gold", []string{"gold"}},
		{"gold-plated watch, mint!", []string{"gold", "plated", "watch", "mint"}},
		{"user@example.com", []string{"user", "example", "com"}},
		{"http://xmark.org/item?id=42", []string{"http", "xmark", "org", "item", "id", "42"}},
		{"café 北京", []string{"café", "北京"}},
		{"a1b2 c3", []string{"a1b2", "c3"}},
		{"  edge  ", []string{"edge"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLongestRun(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"--", ""},
		{"gold", "gold"},
		{"gold-plated", "plated"},
		{"a bb ccc bb", "ccc"},
		{" tie tie ", "tie"}, // first of equals wins
	}
	for _, c := range cases {
		if got := LongestRun(c.in); got != c.want {
			t.Errorf("LongestRun(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// domOf parses the document text into a plain DOM store.
func domOf(t *testing.T, doc string) nodestore.Store {
	t.Helper()
	d, err := tree.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return nodestore.NewDOM("dom", d, nodestore.DOMOptions{})
}

// elementsByTag collects the tag-labeled elements of the store in
// document order by a plain recursive walk — the oracle the index's
// candidate sets are judged against.
func elementsByTag(s nodestore.Store, tag string) []tree.NodeID {
	var out []tree.NodeID
	var walk func(id tree.NodeID)
	walk = func(id tree.NodeID) {
		if s.Tag(id) == tag {
			out = append(out, id)
		}
		for _, c := range s.Children(id, nil) {
			if s.Kind(c) == tree.Element {
				walk(c)
			}
		}
	}
	walk(s.Root())
	return out
}

// contains reports whether ids (ascending) contains id.
func containsID(ids []tree.NodeID, id tree.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func TestCandidatesBasic(t *testing.T) {
	// Every text node here ends in a separator, so no token run straddles
	// node boundaries and the candidate sets are exact (in general they
	// are only supersets — see TestCandidatesSupersetRandom).
	store := domOf(t, `<site><item><name>ring </name><description>a gold-plated ring.</description></item>`+
		`<item><name>chair </name><description>plain wood.</description></item>`+
		`<item><name>empty </name><description></description></item></site>`)
	idx := Build(store)
	items := elementsByTag(store, "item")
	if len(items) != 3 {
		t.Fatalf("want 3 items, got %d", len(items))
	}

	cand, ok := idx.Candidates("item", []nodestore.TextProbe{{Needle: "gold"}})
	if !ok {
		t.Fatal("Candidates declined an indexable needle")
	}
	if !containsID(cand, items[0]) {
		t.Fatalf("gold candidates %v miss the matching item %d", cand, items[0])
	}
	if containsID(cand, items[1]) || containsID(cand, items[2]) {
		t.Fatalf("gold candidates %v include non-matching items", cand)
	}

	// The Sub chain restricts to item/description text.
	cand, ok = idx.Candidates("item", []nodestore.TextProbe{{Sub: []string{"description"}, Needle: "wood"}})
	if !ok || !containsID(cand, items[1]) || containsID(cand, items[0]) {
		t.Fatalf("description-scoped wood candidates wrong: %v ok=%v", cand, ok)
	}
	// "chair" appears only under name, so a description-scoped probe
	// finds nothing.
	cand, ok = idx.Candidates("item", []nodestore.TextProbe{{Sub: []string{"description"}, Needle: "chair"}})
	if !ok || len(cand) != 0 {
		t.Fatalf("name-only term matched a description probe: %v ok=%v", cand, ok)
	}

	// A multi-probe conjunction intersects.
	cand, ok = idx.Candidates("item", []nodestore.TextProbe{{Needle: "gold"}, {Needle: "wood"}})
	if !ok || len(cand) != 0 {
		t.Fatalf("gold AND wood should intersect empty: %v ok=%v", cand, ok)
	}

	// A separator-only needle has no indexable run: the index must decline
	// so the engine scans.
	if _, ok = idx.Candidates("item", []nodestore.TextProbe{{Needle: "-- "}}); ok {
		t.Fatal("Candidates accepted a needle with no token run")
	}
}

// TestCandidatesCrossNodeRun plants a token run that straddles two text
// nodes (an element splits "go" and "ld" inside the description): the
// run posts to both nodes, so a probe for the joined spelling still
// surfaces the item even though neither text node contains it whole.
func TestCandidatesCrossNodeRun(t *testing.T) {
	store := domOf(t, `<site><item><description>go<bold></bold>ld</description></item></site>`)
	idx := Build(store)
	items := elementsByTag(store, "item")
	if sv := store.StringValue(items[0]); sv != "gold" {
		t.Fatalf("string value = %q, want gold", sv)
	}
	cand, ok := idx.Candidates("item", []nodestore.TextProbe{{Needle: "gold"}})
	if !ok || !containsID(cand, items[0]) {
		t.Fatalf("cross-node run missed: %v ok=%v", cand, ok)
	}
}

// TestCandidatesNestedTag exercises the parent-walk fallback for tags
// whose extents nest (parlist inside parlist): every enclosing same-tag
// ancestor must qualify as a candidate.
func TestCandidatesNestedTag(t *testing.T) {
	store := domOf(t, `<site><parlist><listitem><parlist><listitem>gold coin</listitem></parlist></listitem></parlist></site>`)
	idx := Build(store)
	lists := elementsByTag(store, "parlist")
	if len(lists) != 2 {
		t.Fatalf("want 2 parlists, got %d", len(lists))
	}
	cand, ok := idx.Candidates("parlist", []nodestore.TextProbe{{Needle: "gold"}})
	if !ok {
		t.Fatal("declined")
	}
	for _, p := range lists {
		if !containsID(cand, p) {
			t.Fatalf("nested parlist %d missing from candidates %v", p, cand)
		}
	}
}

func TestIndexInfo(t *testing.T) {
	store := domOf(t, `<site><item><description>gold ring</description></item></site>`)
	info := Build(store).Info()
	if info.Terms == 0 || info.Postings == 0 || info.Bytes <= 0 {
		t.Fatalf("implausible index info: %+v", info)
	}
}

// TestFulltextCacheBounded feeds 10k distinct needles through one index
// from four goroutines, the way query text reaches a server, with the
// cache budget lowered to a handful of entries: the cache must stay within
// its budget, clear when full, and never change an answer.
func TestFulltextCacheBounded(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<site>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&doc, "<item><name>n%d </name><description>gold w%d ring%d </description></item>", i, i%7, i%13)
	}
	doc.WriteString("</site>")
	idx := Build(domOf(t, doc.String()))
	if idx.budget != cacheBudget {
		t.Fatalf("Build set budget %d, want %d", idx.budget, cacheBudget)
	}
	idx.budget = 16 << 10

	const needles, workers = 10000, 4
	runs := []string{"gold", "ring", "ring1", "w3", "n19", "ld", "zzz"}
	subs := [][]string{nil, {"description"}, {"name"}}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < needles; i += workers {
				// Separator padding makes every needle distinct while its
				// longest run, and so its answer, repeats.
				p := nodestore.TextProbe{
					Sub:    subs[i%len(subs)],
					Needle: runs[i%len(runs)] + strings.Repeat("-", i/len(runs)),
				}
				got, ok := idx.Candidates("item", []nodestore.TextProbe{p})
				if want := idx.resolve("item", p); !ok || !reflect.DeepEqual(got, want) {
					t.Errorf("needle %q: cached answer %v (ok=%v), want %v", p.Needle, got, ok, want)
					return
				}
				idx.mu.RLock()
				held := idx.cacheBytes
				idx.mu.RUnlock()
				if held > idx.budget {
					t.Errorf("the cache holds %d bytes, budget %d", held, idx.budget)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(idx.cache); n == 0 || n >= needles {
		t.Fatalf("%d of %d distinct needles cached; want some, not all", n, needles)
	}
	var held int64
	for key, cand := range idx.cache {
		held += int64(len(key)) + int64(cap(cand))*4 + cacheEntryOverhead
	}
	if held != idx.cacheBytes {
		t.Fatalf("cache accounts %d bytes, entries hold %d", idx.cacheBytes, held)
	}
}

// TestCandidatesSupersetRandom is the soundness property on random
// corpora: for any needle with an indexable token run, the candidate set
// must be a superset of the true matches — the elements whose probed
// string value contains the needle. (Precision is not required; the
// engine re-verifies. Soundness is what keeps index-on execution
// byte-identical to the scan.)
func TestCandidatesSupersetRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	seps := []string{" ", ", ", ". ", "; ", " -- ", "/", "@", ":", "!"}
	letters := "abcdefgh"
	word := func() string {
		n := 1 + rnd.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rnd.Intn(len(letters))]
		}
		return string(b)
	}
	text := func() string {
		var sb strings.Builder
		for w, n := 0, rnd.Intn(10); w < n; w++ {
			if w > 0 {
				sb.WriteString(seps[rnd.Intn(len(seps))])
			}
			sb.WriteString(word())
		}
		return sb.String()
	}

	for trial := 0; trial < 25; trial++ {
		var doc strings.Builder
		doc.WriteString("<site>")
		for i, n := 0, 1+rnd.Intn(10); i < n; i++ {
			doc.WriteString("<item><name>" + word() + "</name><description>" + text() + "</description></item>")
		}
		doc.WriteString("</site>")
		store := domOf(t, doc.String())
		idx := Build(store)
		items := elementsByTag(store, "item")

		for k := 0; k < 40; k++ {
			var needle string
			if rnd.Intn(2) == 0 && len(items) > 0 {
				// A real substring of some item's string value: guaranteed
				// at least one true match, including runs spanning words
				// and separators.
				sv := store.StringValue(items[rnd.Intn(len(items))])
				if sv == "" {
					continue
				}
				i := rnd.Intn(len(sv))
				needle = sv[i : i+1+rnd.Intn(len(sv)-i)]
			} else {
				needle = word()
			}
			for _, probe := range []nodestore.TextProbe{
				{Needle: needle},
				{Sub: []string{"description"}, Needle: needle},
			} {
				cand, ok := idx.Candidates("item", []nodestore.TextProbe{probe})
				if !ok {
					continue // no indexable run; the engine scans
				}
				for i := 1; i < len(cand); i++ {
					if cand[i] <= cand[i-1] {
						t.Fatalf("candidates not ascending/deduped: %v", cand)
					}
				}
				for _, it := range items {
					match := false
					if len(probe.Sub) == 0 {
						match = strings.Contains(store.StringValue(it), needle)
					} else {
						for _, c := range store.Children(it, nil) {
							if store.Kind(c) == tree.Element && store.Tag(c) == "description" &&
								strings.Contains(store.StringValue(c), needle) {
								match = true
								break
							}
						}
					}
					if match && !containsID(cand, it) {
						t.Fatalf("trial %d: needle %q sub %v: matching item %d missing from candidates %v\ndoc: %s",
							trial, needle, probe.Sub, it, cand, doc.String())
					}
				}
			}
		}
	}
}

// FuzzTokenize checks Tokenize against an independent rune-based
// formulation of the same invariant: tokens are the maximal runs of
// token characters (ASCII alphanumerics and everything non-ASCII —
// which in byte terms is every byte >= 0x80, so the two formulations
// must agree on arbitrary, even invalid, UTF-8).
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "hello world", "gold-plated", "user@example.com",
		"http://xmark.org/a?b=1", "café 北京", "..!!..", "a",
		"\x80\xfe ok", "mixed1 2mixed",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := Tokenize(s)
		want := strings.FieldsFunc(s, func(r rune) bool {
			return r <= 127 && !('a' <= r && r <= 'z') && !('A' <= r && r <= 'Z') && !('0' <= r && r <= '9')
		})
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", s, got, want)
		}
		longest := ""
		for i, tok := range got {
			if tok != want[i] {
				t.Fatalf("Tokenize(%q)[%d] = %q, want %q", s, i, tok, want[i])
			}
			if tok == "" {
				t.Fatalf("Tokenize(%q) produced an empty token", s)
			}
			for i := 0; i < len(tok); i++ {
				if !isTokenByte(tok[i]) {
					t.Fatalf("Tokenize(%q): token %q contains separator byte %#x", s, tok, tok[i])
				}
			}
			if len(tok) > len(longest) {
				longest = tok
			}
		}
		if lr := LongestRun(s); lr != longest {
			t.Fatalf("LongestRun(%q) = %q, want %q", s, lr, longest)
		}
	})
}

// TestPostingsExactSize pins the CSR layout over the three relational
// mappings: the term, offsets and ids arrays and every tag extent are
// sized exactly, the offsets ascend, and each term's vector ascends without
// duplicates.
func TestPostingsExactSize(t *testing.T) {
	doc, err := tree.Parse([]byte(xmlgen.New(xmlgen.Options{Factor: 0.01}).String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []nodestore.Store{mapping.NewEdge(doc), mapping.NewPath(doc), mapping.NewInline(doc)} {
		x := Build(store)
		if cap(x.off) != len(x.off) || cap(x.ids) != len(x.ids) || cap(x.terms) != len(x.terms) {
			t.Errorf("%s: off cap %d len %d, ids cap %d len %d, terms cap %d len %d", store.Name(),
				cap(x.off), len(x.off), cap(x.ids), len(x.ids), cap(x.terms), len(x.terms))
		}
		if len(x.off) != len(x.terms)+1 || int(x.off[len(x.off)-1]) != len(x.ids) {
			t.Fatalf("%s: %d offsets for %d terms, last %d for %d ids", store.Name(), len(x.off), len(x.terms), x.off[len(x.off)-1], len(x.ids))
		}
		for c := int32(0); int(c) < len(x.terms); c++ {
			p := x.postingsOf(c)
			if len(p) == 0 {
				t.Fatalf("%s: term %q has no postings", store.Name(), x.terms[c])
			}
			for i := 1; i < len(p); i++ {
				if p[i] <= p[i-1] {
					t.Fatalf("%s: postings of %q not strictly ascending: %v", store.Name(), x.terms[c], p)
				}
			}
		}
		for tag, te := range x.tags {
			if cap(te.starts) != len(te.starts) || cap(te.ends) != len(te.ends) {
				t.Errorf("%s: extent of %q keeps append slack", store.Name(), tag)
			}
		}
	}
}
