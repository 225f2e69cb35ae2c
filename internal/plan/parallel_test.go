package plan

import (
	"strings"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
)

// parallelOpts is a summarized main-memory profile with morsel
// parallelism enabled, matching System D's shape.
func parallelOpts() Options {
	return Options{PathExtents: true, CountShortcut: true, HashJoins: true,
		AttrIndexes: true, MaxDegree: 8}
}

func TestParallelizeFiresOnPathScanFLWOR(t *testing.T) {
	store := testStore(t)
	p := compileOpt(t, `for $p in /site/people/person return $p/name/text()`, parallelOpts(), store)
	if fired(p, "parallelize") != 1 {
		t.Fatalf("parallelize fired %d times: %v", fired(p, "parallelize"), p.Fired)
	}
	if countOps(p, OpGather) != 1 || countOps(p, OpPartitionedScan) != 1 {
		t.Fatalf("gather/scan operators missing:\n%s", p.Explain())
	}
	if p.Root.Input.Op != OpGather {
		t.Fatalf("gather not at the pipeline root:\n%s", p.Explain())
	}
	g := p.Root.Input
	if g.Degree != 8 {
		t.Fatalf("gather degree = %d, want 8", g.Degree)
	}
	if g.Scan == nil || g.Scan.Op != OpPartitionedScan || strings.Join(g.Scan.Path, "/") != "site/people/person" {
		t.Fatalf("scan alias wrong: %+v", g.Scan)
	}
}

func TestParallelizeFiresOnTagExtent(t *testing.T) {
	store := testStore(t)
	p := compileOpt(t, `for $x in /site//person return $x/name/text()`, parallelOpts(), store)
	if fired(p, "parallelize") != 1 {
		t.Fatalf("parallelize did not fire: %v", p.Fired)
	}
	scan := p.Root.Input.Scan
	if scan.Tag != "person" {
		t.Fatalf("tag scan = %q, want person", scan.Tag)
	}
}

func TestParallelizeCountPartialSums(t *testing.T) {
	store := testStore(t)
	// A predicate defeats the count-shortcut, leaving a drain count whose
	// argument parallelizes.
	p := compileOpt(t, `count(/site/people/person[@income >= 50000]/name)`, parallelOpts(), store)
	if fired(p, "parallelize") != 1 {
		t.Fatalf("parallelize did not fire: %v\n%s", p.Fired, p.Explain())
	}
	cnt := p.Root.Input
	if cnt.Op != OpCount || cnt.Kids[0].Op != OpGather {
		t.Fatalf("count argument not gathered:\n%s", p.Explain())
	}
}

func TestParallelizeRespectsMaxDegree(t *testing.T) {
	store := testStore(t)
	opts := parallelOpts()
	opts.MaxDegree = 0
	p := compileOpt(t, `for $p in /site/people/person return $p/name/text()`, opts, store)
	if fired(p, "parallelize") != 0 || countOps(p, OpGather) != 0 {
		t.Fatalf("parallelize fired with MaxDegree 0: %v", p.Fired)
	}
}

func TestParallelizeSkipsUnsplittableStore(t *testing.T) {
	// A store whose partition methods decline: wrap the DOM so every
	// partitionability probe answers ok=false.
	store := plainStore{testStore(t)}
	p := compileOpt(t, `for $p in /site/people/person return $p/name/text()`, parallelOpts(), store)
	if fired(p, "parallelize") != 0 {
		t.Fatalf("parallelize fired on an unsplittable store: %v", p.Fired)
	}
}

func TestParallelizeSkipsOrderBy(t *testing.T) {
	store := testStore(t)
	p := compileOpt(t, `for $p in /site/people/person order by $p/name/text() return $p/name/text()`,
		parallelOpts(), store)
	if fired(p, "parallelize") != 0 {
		t.Fatalf("parallelize fired across an order-by pipeline breaker: %v", p.Fired)
	}
}

func TestParallelizeSkipsPositionalFilters(t *testing.T) {
	store := testStore(t)
	// A whole-sequence positional filter depends on global ranks.
	for _, src := range []string{
		`(/site/people/person)[position() < 2]`,
		`(/site/people/person)[last()]`,
	} {
		p := compileOpt(t, src, parallelOpts(), store)
		if fired(p, "parallelize") != 0 {
			t.Fatalf("parallelize fired on positional filter %q: %v", src, p.Fired)
		}
	}
	// Boolean-shaped whole-sequence filters are safe.
	p := compileOpt(t, `(/site/people/person)[@income >= 50000]`, parallelOpts(), store)
	if fired(p, "parallelize") != 1 {
		t.Fatalf("parallelize skipped a boolean filter: %v\n%s", p.Fired, p.Explain())
	}
}

func TestParallelizeSkipsDescendantAfterTagScan(t *testing.T) {
	// A store with tag extents but no path catalog (System E's shape):
	// the only splittable leaf is the tag extent, whose nodes may nest,
	// so a second descendant step (its duplicate elimination spans
	// partitions) must keep the plan sequential.
	doc, err := tree.Parse([]byte(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	store := nodestore.NewDOM("dom+extents", doc, nodestore.DOMOptions{TagExtents: true, AttrIndexes: true})
	opts := Options{HashJoins: true, AttrIndexes: true, MaxDegree: 8}
	p := compileOpt(t, `for $n in /site//person//name return $n/text()`, opts, store)
	if fired(p, "parallelize") != 0 {
		t.Fatalf("parallelize fired across nested descendant steps: %v\n%s", p.Fired, p.Explain())
	}
	// Child steps after the tag scan are per-context and stay safe.
	p = compileOpt(t, `for $n in /site//person/name return $n/text()`, opts, store)
	if fired(p, "parallelize") != 1 {
		t.Fatalf("parallelize skipped child step after tag scan: %v\n%s", p.Fired, p.Explain())
	}
	// With a path catalog, territories below /site/people/person are
	// disjoint, so even further descendant steps parallelize.
	p = compileOpt(t, `for $n in /site/people/person//name return $n/text()`, parallelOpts(), testStore(t))
	if fired(p, "parallelize") != 1 {
		t.Fatalf("parallelize skipped descendant below a path scan: %v\n%s", p.Fired, p.Explain())
	}
}

// plainStore declines every partitioned scan of the wrapped store with
// ok=false, the way a store without splittable extents answers.
type plainStore struct{ nodestore.Store }

func (plainStore) TagExtentPartitions(string, int) ([]nodestore.Cursor, bool) {
	return nil, false
}

func (plainStore) PathExtentPartitions([]string, int) ([]nodestore.Cursor, bool) {
	return nil, false
}

func (plainStore) PathExtentFilteredPartitions([]string, []nodestore.ValueFilter, int) ([]nodestore.Cursor, bool) {
	return nil, false
}
