package plan

import (
	"strings"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
)

// vectorStore builds a summarized main-memory store whose person extent
// clears minBatchExtent, so the vectorize rule's cost gate admits it.
func vectorStore(t *testing.T) nodestore.Store {
	t.Helper()
	var b strings.Builder
	b.WriteString(`<site><people>`)
	for i := 0; i < 2*minBatchExtent; i++ {
		b.WriteString(`<person income="50000"><name>n</name><pl><e/><pl><e/></pl></pl></person>`)
	}
	b.WriteString(`</people></site>`)
	doc, err := tree.Parse([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return nodestore.NewDOM("dom", doc, nodestore.DOMOptions{
		Summary: true, TagExtents: true, AttrIndexes: true, FilteredScans: true})
}

func vectorOpts() Options {
	return Options{PathExtents: true, CountShortcut: true, HashJoins: true, AttrIndexes: true}
}

func TestVectorizeMarksPathScan(t *testing.T) {
	p := compileOpt(t, `for $p in /site/people/person return $p/name/text()`, vectorOpts(), vectorStore(t))
	if fired(p, "vectorize") != 1 {
		t.Fatalf("vectorize fired %d times: %v", fired(p, "vectorize"), p.Fired)
	}
	marked := 0
	p.walk(func(n *Node) {
		if n.Op == OpPathScan && n.Vectorized {
			marked++
		}
	})
	if marked != 1 {
		t.Fatalf("marked %d scans, want 1:\n%s", marked, p.Explain())
	}
	if !strings.Contains(p.Explain(), "BatchScan /site/people/person") {
		t.Fatalf("EXPLAIN lacks BatchScan:\n%s", p.Explain())
	}
}

func TestVectorizeComposesUnderGather(t *testing.T) {
	opts := vectorOpts()
	opts.MaxDegree = 8
	p := compileOpt(t, `count(/site/people/person[@income >= 40000]/name)`, opts, vectorStore(t))
	// The parallelize rule partitions the filtered scan; vectorize then
	// marks the PartitionedScan leaf so every morsel runs batched.
	if fired(p, "parallelize") != 1 || fired(p, "vectorize") == 0 {
		t.Fatalf("rules: %v\n%s", p.Fired, p.Explain())
	}
	ok := false
	p.walk(func(n *Node) {
		if n.Op == OpPartitionedScan && n.Vectorized {
			ok = true
		}
	})
	if !ok {
		t.Fatalf("PartitionedScan not vectorized:\n%s", p.Explain())
	}
	if !strings.Contains(p.Explain(), "BatchScan") || !strings.Contains(p.Explain(), "(partitioned)") {
		t.Fatalf("EXPLAIN lacks partitioned BatchScan:\n%s", p.Explain())
	}
}

func TestVectorizeBatchSelect(t *testing.T) {
	// A whole-sequence filter with a rank-free boolean predicate batches
	// with a selection vector; EXPLAIN renders it as BatchSelect.
	p := compileOpt(t, `(/site/people/person)[name/text() = "n"]`, vectorOpts(), vectorStore(t))
	sel := 0
	p.walk(func(n *Node) {
		if n.Op == OpSelect && n.Vectorized {
			sel++
		}
	})
	if sel != 1 {
		t.Fatalf("vectorized selects = %d, want 1: %v\n%s", sel, p.Fired, p.Explain())
	}
	if !strings.Contains(p.Explain(), "BatchSelect [sel=") {
		t.Fatalf("EXPLAIN lacks BatchSelect:\n%s", p.Explain())
	}
}

func TestVectorizePositionalSelectStaysTuple(t *testing.T) {
	// Positional and last()-dependent filters are rank-dependent: batch
	// boundaries must not be observable, so the select stays tuple-wise
	// (the scan below it still batches).
	for _, src := range []string{
		`(/site/people/person)[3]`,
		`(/site/people/person)[position() < 5]`,
		`(/site/people/person)[last()]`,
	} {
		p := compileOpt(t, src, vectorOpts(), vectorStore(t))
		p.walk(func(n *Node) {
			if n.Op == OpSelect && n.Vectorized {
				t.Fatalf("%s: positional select vectorized:\n%s", src, p.Explain())
			}
		})
	}
}

func TestVectorizeBatchSteps(t *testing.T) {
	// Child and text steps extend the batch pipeline; a step with an
	// engine-evaluated predicate ends it.
	p := compileOpt(t, `/site/people/person/name/text()`, vectorOpts(), vectorStore(t))
	nav := findNavigate(p)
	if nav == nil {
		// The whole path may have fused into the scan; then there is
		// nothing left to check.
		t.Fatalf("no Navigate in plan:\n%s", p.Explain())
	}
	if nav.BatchSteps != len(nav.Steps) {
		t.Fatalf("BatchSteps = %d of %d:\n%s", nav.BatchSteps, len(nav.Steps), p.Explain())
	}

	p = compileOpt(t, `/site/people/person/name[text() = "n"]/text()`, vectorOpts(), vectorStore(t))
	nav = findNavigate(p)
	if nav == nil {
		t.Fatalf("no Navigate in plan:\n%s", p.Explain())
	}
	if nav.BatchSteps != 0 {
		t.Fatalf("predicated step batched: BatchSteps = %d\n%s", nav.BatchSteps, p.Explain())
	}
}

func TestVectorizeDescendantRules(t *testing.T) {
	// One descendant step over a path extent batches (path extents never
	// nest); a second one must not (the first step's output may nest).
	p := compileOpt(t, `/site/people/person/pl//e`, vectorOpts(), vectorStore(t))
	nav := findNavigate(p)
	if nav == nil {
		t.Fatalf("no Navigate in plan:\n%s", p.Explain())
	}
	if nav.BatchSteps != len(nav.Steps) {
		t.Fatalf("single descendant step did not batch: %d of %d\n%s",
			nav.BatchSteps, len(nav.Steps), p.Explain())
	}

	p = compileOpt(t, `/site/people/person//pl//e`, vectorOpts(), vectorStore(t))
	nav = findNavigate(p)
	if nav == nil {
		t.Fatalf("no Navigate in plan:\n%s", p.Explain())
	}
	if got := nav.BatchSteps; got >= len(nav.Steps) {
		t.Fatalf("nested descendant steps all batched (%d of %d):\n%s",
			got, len(nav.Steps), p.Explain())
	}

	// Non-nestedness must flow transitively: a parenthesized input splits
	// the chain into stacked Navigate nodes, and the inner one's
	// descendant step already forfeits the property — the outer descendant
	// step must not batch just because its immediate input is a Navigate.
	p = compileOpt(t, `(/site/people/person//pl)//e`, vectorOpts(), vectorStore(t))
	outer := p.Root.Input
	for outer != nil && outer.Op != OpNavigate {
		outer = outer.Input
	}
	if outer == nil {
		t.Fatalf("no outer Navigate in plan:\n%s", p.Explain())
	}
	if outer.BatchSteps != 0 {
		t.Fatalf("descendant over a nested upstream batched (BatchSteps=%d):\n%s",
			outer.BatchSteps, p.Explain())
	}
}

func TestVectorizeGates(t *testing.T) {
	// Extents below minBatchExtent stay tuple-at-a-time: the fixed batch
	// setup would cost more than the scan.
	p := compileOpt(t, `for $p in /site/people/person return $p`, vectorOpts(), testStore(t))
	if fired(p, "vectorize") != 0 {
		t.Fatalf("vectorize fired on a tiny extent: %v", p.Fired)
	}
}

func findNavigate(p *Plan) *Node {
	var nav *Node
	p.walk(func(n *Node) {
		if n.Op == OpNavigate && nav == nil {
			nav = n
		}
	})
	return nav
}
