package engine

import (
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestore"
	"repro/internal/tree"
)

// countingStore wraps a Store and counts navigation calls: both the
// slice methods and the cursor methods the streaming pipeline opens, so
// every navigation passes through the counters whichever form the engine
// picks.
type countingStore struct {
	nodestore.Store
	ops int
}

func (c *countingStore) ChildrenCursor(n tree.NodeID) nodestore.Cursor {
	c.ops++
	return c.Store.ChildrenCursor(n)
}

func (c *countingStore) ChildrenByTagCursor(n tree.NodeID, tag string) nodestore.Cursor {
	c.ops++
	return c.Store.ChildrenByTagCursor(n, tag)
}

func (c *countingStore) DescendantsCursor(n tree.NodeID, tag string) nodestore.Cursor {
	c.ops++
	return c.Store.DescendantsCursor(n, tag)
}

func (c *countingStore) Children(n tree.NodeID, buf []tree.NodeID) []tree.NodeID {
	c.ops++
	return c.Store.Children(n, buf)
}

func (c *countingStore) ChildrenByTag(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	c.ops++
	return c.Store.ChildrenByTag(n, tag, buf)
}

func (c *countingStore) Descendants(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	c.ops++
	return c.Store.Descendants(n, tag, buf)
}

func (c *countingStore) StringValue(n tree.NodeID) string {
	c.ops++
	return c.Store.StringValue(n)
}

// TestStreamEarlyTermination verifies the pipeline's defining property: a
// consumer that stops after the first item never pays for the rest of the
// document (the Q1 shape — first match wins).
func TestStreamEarlyTermination(t *testing.T) {
	doc, err := tree.Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: nodestore.NewDOM("dom", doc, nodestore.DOMOptions{})}
	e := New(cs, Options{})
	p, err := e.Prepare(`/site/people/person/name/text()`)
	if err != nil {
		t.Fatal(err)
	}

	cs.ops = 0
	seq, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 4 {
		t.Fatalf("full run found %d names", len(seq))
	}
	fullOps := cs.ops

	cs.ops = 0
	var got []Item
	err = p.Stream(func(it Item) bool {
		got = append(got, it)
		return false // stop after the first item
	})
	if err != nil {
		t.Fatal(err)
	}
	earlyOps := cs.ops
	if len(got) != 1 {
		t.Fatalf("stream yielded %d items after stop", len(got))
	}
	if earlyOps >= fullOps {
		t.Fatalf("early termination did no less work: %d vs %d store ops", earlyOps, fullOps)
	}
}

// TestQuantifierShortCircuit verifies that an existential quantifier stops
// generating bindings at the first witness.
func TestQuantifierShortCircuit(t *testing.T) {
	doc, err := tree.Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: nodestore.NewDOM("dom", doc, nodestore.DOMOptions{})}
	e := New(cs, Options{})

	// The first item's location already satisfies the comparison, so the
	// remaining items must not be atomized.
	p, err := e.Prepare(`some $i in /site/regions/europe/item satisfies $i/location/text() = "Austria"`)
	if err != nil {
		t.Fatal(err)
	}
	cs.ops = 0
	seq, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	witnessOps := cs.ops
	if len(seq) != 1 || seq[0] != Item(BoolItem(true)) {
		t.Fatalf("quantifier = %v", seq)
	}

	// A never-satisfied quantifier must visit every item: strictly more
	// navigation than the witnessed run.
	p2, err := e.Prepare(`some $i in /site/regions/europe/item satisfies $i/location/text() = "Atlantis"`)
	if err != nil {
		t.Fatal(err)
	}
	cs.ops = 0
	if _, err := p2.Run(); err != nil {
		t.Fatal(err)
	}
	if witnessOps >= cs.ops {
		t.Fatalf("witnessed quantifier did not short-circuit: %d vs %d store ops", witnessOps, cs.ops)
	}
}

// TestPreparedReRun verifies re-iteration safety: a Prepared query builds
// a fresh pipeline per execution, so interleaved partial and full runs
// all see the complete result.
func TestPreparedReRun(t *testing.T) {
	engines := sampleStores(t)
	e := engines[0]
	p, err := e.Prepare(`for $p in /site/people/person return $p/name/text()`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := SerializeString(e.Store(), first)
	if want != "Ada Bob Cid Dot" {
		t.Fatalf("run = %q", want)
	}

	// A partial stream must not disturb later runs.
	n := 0
	if err := p.Stream(func(Item) bool { n++; return n < 2 }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("partial stream saw %d items", n)
	}

	again, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := SerializeString(e.Store(), again); got != want {
		t.Fatalf("rerun after partial stream = %q, want %q", got, want)
	}

	var buf strings.Builder
	if err := p.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("streamed serialization = %q, want %q", buf.String(), want)
	}
}

// TestSeqIterReusable verifies that a materialized Seq can be iterated any
// number of times.
func TestSeqIterReusable(t *testing.T) {
	s := Seq{StrItem("a"), NumItem(2), BoolItem(true)}
	for round := 0; round < 2; round++ {
		it := s.Iter()
		var got Seq
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if len(got) != 3 || got[0] != s[0] || got[2] != s[2] {
			t.Fatalf("round %d: got %v", round, got)
		}
	}
}

// nestedDoc nests same-tag elements so that a descendant step from a
// multi-node context produces candidate overlap: the duplicate-elimination
// case of the streaming descendant operator.
const nestedDoc = `<r><a id="1"><a id="2"><b v="x"/></a><b v="y"/></a><c><a id="3"><b v="z"/></a></c></r>`

func nestedStores(t *testing.T) []*Engine {
	t.Helper()
	doc, err := tree.Parse([]byte(nestedDoc))
	if err != nil {
		t.Fatal(err)
	}
	return []*Engine{
		New(nodestore.NewDOM("dom", doc, nodestore.DOMOptions{}), Options{}),
		New(nodestore.NewDOM("dom+extents", doc, nodestore.DOMOptions{TagExtents: true}), Options{}),
		New(nodestore.NewDOM("dom+summary", doc, nodestore.DOMOptions{Summary: true, TagExtents: true}), Options{PathExtents: true, CountShortcut: true}),
		New(mapping.NewEdge(doc), Options{}),
		New(mapping.NewPath(doc), Options{PathExtents: true}),
	}
}

// TestDescendantsFromNestedContext checks that descendant steps from
// overlapping context nodes stay duplicate-free and document-ordered.
func TestDescendantsFromNestedContext(t *testing.T) {
	for _, e := range nestedStores(t) {
		seq, err := e.Query(`//a//b`)
		if err != nil {
			t.Fatalf("[%s] %v", e.Store().Name(), err)
		}
		got := SerializeString(e.Store(), seq)
		want := `<b v="x"/><b v="y"/><b v="z"/>`
		if got != want {
			t.Fatalf("[%s] //a//b = %s, want %s", e.Store().Name(), got, want)
		}
	}
}

// TestDescendantsWithPredicateFromNestedContext exercises the materializing
// fallback: per-origin positional predicates on an overlapping context.
// a#1's first b descendant is the x-valued one (also a#2's first), a#3's is
// the z-valued one; the union deduplicates.
func TestDescendantsWithPredicateFromNestedContext(t *testing.T) {
	for _, e := range nestedStores(t) {
		seq, err := e.Query(`//a//b[1]`)
		if err != nil {
			t.Fatalf("[%s] %v", e.Store().Name(), err)
		}
		got := SerializeString(e.Store(), seq)
		want := `<b v="x"/><b v="z"/>`
		if got != want {
			t.Fatalf("[%s] //a//b[1] = %s, want %s", e.Store().Name(), got, want)
		}
	}
}

// TestFilterWithLast exercises the whole-sequence filter's materializing
// path: last() forces the context size to be known before streaming.
func TestFilterWithLast(t *testing.T) {
	got := runAll(t, `(/site/people/person)[last()]/name/text()`)
	if got != "Dot" {
		t.Fatalf("[last()] = %q", got)
	}
	got = runAll(t, `(/site/people/person)[position() < last()]/name/text()`)
	if got != "Ada Bob Cid" {
		t.Fatalf("[position() < last()] = %q", got)
	}
}

// TestStreamingFilterPositions exercises the streaming filter: positions
// without last() are assigned on the fly, and chained predicates see the
// positions of the previous predicate's survivors.
func TestStreamingFilterPositions(t *testing.T) {
	got := runAll(t, `(/site/people/person)[position() > 1][2]/name/text()`)
	if got != "Cid" {
		t.Fatalf("chained positional filters = %q", got)
	}
}
