package engine

import (
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestore"
	"repro/internal/tree"
)

func diagEngine(t *testing.T, opts Options, domOpts nodestore.DOMOptions) *Engine {
	t.Helper()
	doc, err := tree.Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	return New(nodestore.NewDOM("diag", doc, domOpts), opts)
}

func TestDiagnoseTypoInAbsolutePath(t *testing.T) {
	e := diagEngine(t, Options{PathExtents: true},
		nodestore.DOMOptions{Summary: true, TagExtents: true})
	p, err := e.Prepare(`for $b in /site/peeple/person return $b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Diagnostics) == 0 {
		t.Fatal("no diagnostics for misspelled path")
	}
	found := false
	for _, d := range p.Diagnostics {
		if strings.Contains(d, "peeple") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostics do not name the typo: %v", p.Diagnostics)
	}
	// The query still runs and returns empty, matching the paper's "typos
	// evaluate to empty results".
	seq, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 0 {
		t.Fatal("misspelled path returned data")
	}
}

func TestDiagnoseUnknownTagInRelativePath(t *testing.T) {
	e := diagEngine(t, Options{PathExtents: true},
		nodestore.DOMOptions{Summary: true, TagExtents: true})
	p, err := e.Prepare(`for $b in /site/people/person return $b/homepaje/text()`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range p.Diagnostics {
		if strings.Contains(d, "homepaje") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostics = %v", p.Diagnostics)
	}
}

func TestDiagnoseCleanQueryHasNoWarnings(t *testing.T) {
	e := diagEngine(t, Options{PathExtents: true, CountShortcut: true},
		nodestore.DOMOptions{Summary: true, TagExtents: true})
	for _, src := range []string{
		`for $b in /site/people/person[@id="person0"] return $b/name/text()`,
		`count(//item)`,
		`for $p in /site/people/person where empty($p/homepage/text()) return $p/name/text()`,
	} {
		p, err := e.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Diagnostics) != 0 {
			t.Fatalf("unexpected diagnostics for %q: %v", src, p.Diagnostics)
		}
	}
}

func TestDiagnoseRequiresCatalog(t *testing.T) {
	// A store without tag extents or summary cannot validate paths online;
	// no diagnostics are produced (the paper's point: this needs catalog
	// support).
	e := diagEngine(t, Options{}, nodestore.DOMOptions{})
	p, err := e.Prepare(`for $b in /site/peeple/person return $b/homepaje`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Diagnostics) != 0 {
		t.Fatalf("catalog-less store produced diagnostics: %v", p.Diagnostics)
	}
}

func TestDiagnoseEachTagOnce(t *testing.T) {
	e := diagEngine(t, Options{PathExtents: true},
		nodestore.DOMOptions{Summary: true, TagExtents: true})
	p, err := e.Prepare(`(//wibble, //wibble, //wibble)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Diagnostics) != 1 {
		t.Fatalf("want 1 deduplicated diagnostic, got %v", p.Diagnostics)
	}
}

// TestCompileOutputInNameOrder: function bodies are checked and diagnosed
// in name order, then the main body, so the warnings of several bodies and
// the first static error come out the same on every Prepare, whatever the
// order of the function map.
func TestCompileOutputInNameOrder(t *testing.T) {
	e := diagEngine(t, Options{PathExtents: true},
		nodestore.DOMOptions{Summary: true, TagExtents: true})
	const warned = `declare function local:c() { //gamma };
declare function local:a() { //alpha };
declare function local:b() { //beta };
(local:c(), local:b(), local:a(), //delta)`
	var want []string
	for _, tag := range []string{"alpha", "beta", "gamma", "delta"} {
		want = append(want, "tag <"+tag+"> occurs nowhere in the database instance")
	}
	const unbound = `declare function local:b() { $y };
declare function local:c() { $z };
declare function local:a() { $x };
1`
	for i := 0; i < 50; i++ {
		p, err := e.Prepare(warned)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(p.Diagnostics, "\n") != strings.Join(want, "\n") {
			t.Fatalf("Prepare %d: diagnostics = %q, want %q", i, p.Diagnostics, want)
		}
		if _, err := e.Prepare(unbound); err == nil || !strings.Contains(err.Error(), "$x") {
			t.Fatalf("Prepare %d: error %v, want the unbound $x of local:a", i, err)
		}
	}
}

// extentCounter counts the extents a compile materializes on the
// fragmenting mapping, whose TagExtent concatenates and merges fragments.
type extentCounter struct {
	*mapping.Path
	materialized int
}

func (c *extentCounter) TagExtent(tag string, buf []tree.NodeID) ([]tree.NodeID, bool) {
	c.materialized++
	return c.Path.TagExtent(tag, buf)
}

func (c *extentCounter) PathExtent(path []string, buf []tree.NodeID) ([]tree.NodeID, bool) {
	c.materialized++
	return c.Path.PathExtent(path, buf)
}

// TestDiagnoseReadsCatalogNotExtents: compiling Q14 — and diagnosing
// typos — reads the store's cardinality catalog (TagCard/PathCard) and
// materializes no extent.
func TestDiagnoseReadsCatalogNotExtents(t *testing.T) {
	doc, err := tree.Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{PathExtents: true, HashJoins: true, AttrIndexes: true}
	const q14 = `for $i in /site//item
where contains(string(exactly-one($i/description)), "gold")
return $i/name/text()`
	const typos = `for $b in /site/peeple/person return $b/homepaje/text()`
	wantTypos := []string{
		"path /site/peeple is empty: no <peeple> at this position",
		"tag <peeple> occurs nowhere in the database instance",
		"tag <homepaje> occurs nowhere in the database instance",
	}

	st := &extentCounter{Path: mapping.NewPath(doc)}
	for _, c := range []struct {
		store     nodestore.Store
		noExtents bool
	}{
		{st, true},
	} {
		e := New(c.store, opts)
		st.materialized = 0
		p, err := e.Prepare(q14)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Diagnostics) != 0 {
			t.Fatalf("Q14 diagnostics: %v", p.Diagnostics)
		}
		p, err = e.Prepare(typos)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(p.Diagnostics, "\n") != strings.Join(wantTypos, "\n") {
			t.Fatalf("diagnostics = %q, want %q", p.Diagnostics, wantTypos)
		}
		if (st.materialized == 0) != c.noExtents {
			t.Fatalf("catalog visible = %v: %d extents materialized at compile", c.noExtents, st.materialized)
		}
	}
}
