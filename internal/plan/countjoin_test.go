package plan

import (
	"strings"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
)

// joinStore holds two extents that clear the vectorize gate, so a join
// between them plans as a vectorized join — the precondition of count-join.
func joinStore(t *testing.T) nodestore.Store {
	t.Helper()
	var b strings.Builder
	b.WriteString(`<site><people>`)
	for i := 0; i < 2*minBatchExtent; i++ {
		b.WriteString(`<person id="p" income="50000"/>`)
	}
	b.WriteString(`</people><auctions>`)
	for i := 0; i < 2*minBatchExtent; i++ {
		b.WriteString(`<auction buyer="p"><initial>7</initial></auction>`)
	}
	b.WriteString(`</auctions></site>`)
	doc, err := tree.Parse([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return nodestore.NewDOM("dom", doc, nodestore.DOMOptions{
		Summary: true, TagExtents: true, AttrIndexes: true, FilteredScans: true})
}

// countJoinMarks compiles src and reports the count-only lets and the
// counts reading them.
func countJoinMarks(t *testing.T, src string, opts Options) (p *Plan, lets, counts int) {
	t.Helper()
	p = compileOpt(t, src, opts, joinStore(t))
	p.walk(func(n *Node) {
		if n.Op == OpLet && n.CountOnly {
			lets++
		}
		if n.Op == OpCount && n.CountMode == CountMatches {
			counts++
		}
	})
	return p, lets, counts
}

const (
	thetaLet = `let $l := for $a in /site/auctions/auction
	            where $p/@income > 5000 * exactly-one($a/initial/text()) return $a `
	hashLet = `let $l := for $a in /site/auctions/auction
	           where $a/@buyer = $p/@id return $a `
)

func TestCountJoinFires(t *testing.T) {
	for name, let := range map[string]string{"sort join": thetaLet, "hash join": hashLet} {
		src := `for $p in /site/people/person ` + let +
			`where count($l) > 0 return <n c="{count($l)}">{count($l)}</n>`
		p, lets, counts := countJoinMarks(t, src, vectorOpts())
		if fired(p, "count-join") != 1 || lets != 1 || counts != 3 {
			t.Errorf("%s: count-join fired %d times, %d lets, %d counts (want 1, 1, 3):\n%s",
				name, fired(p, "count-join"), lets, counts, p.Explain())
		}
		if !strings.Contains(p.Explain(), "Let $l [count-only]") {
			t.Errorf("%s: EXPLAIN lacks the count-only let:\n%s", name, p.Explain())
		}
	}
	// The sort-join annotation needs statically numeric keys; an untyped
	// key side stays a nested-loop join, and still fuses its count.
	p, _, _ := countJoinMarks(t, `for $p in /site/people/person `+thetaLet+`return count($l)`, vectorOpts())
	if !strings.Contains(p.Explain(), "BatchSortJoin $a") || !strings.Contains(p.Explain(), "[keys=num]") {
		t.Errorf("numeric keys did not plan a sort join:\n%s", p.Explain())
	}
	p, lets, _ := countJoinMarks(t, `for $p in /site/people/person
		let $l := for $a in /site/auctions/auction where $p/@income > $a/initial/text() return $a
		return count($l)`, vectorOpts())
	if !strings.Contains(p.Explain(), "BatchNestedLoopJoin $a") || strings.Contains(p.Explain(), "keys=num") || lets != 1 {
		t.Errorf("untyped keys: want a count-only BatchNestedLoopJoin:\n%s", p.Explain())
	}
}

func TestCountJoinBlockers(t *testing.T) {
	// Without path extents no scan starts a batch pipeline, so the join
	// stays unvectorized: the way Systems A, E and F plan it.
	tuple := vectorOpts()
	tuple.PathExtents = false
	for name, tc := range map[string]struct {
		src  string
		opts Options
	}{
		"used outside count": {`for $p in /site/people/person ` + thetaLet +
			`return (count($l), $l/initial/text())`, vectorOpts()},
		"bare reference": {`for $p in /site/people/person ` + hashLet +
			`return (count($l), $l)`, vectorOpts()},
		"positional predicate": {`for $p in /site/people/person ` + thetaLet +
			`return count($l[1])`, vectorOpts()},
		"positional filter on the let": {`for $p in /site/people/person
			let $l := (for $a in /site/auctions/auction where $a/@buyer = $p/@id return $a)[1]
			return count($l)`, vectorOpts()},
		"return is not the join variable": {`for $p in /site/people/person
			let $l := for $a in /site/auctions/auction where $a/@buyer = $p/@id return $a/initial
			return count($l)`, vectorOpts()},
		"residual where": {`for $p in /site/people/person
			let $l := for $a in /site/auctions/auction
			          where $a/@buyer = $p/@id and $a/initial/text() > 3 return $a
			return count($l)`, vectorOpts()},
		"shadowed by a later clause": {`for $p in /site/people/person ` + hashLet +
			`let $l := $p/@id return count($l)`, vectorOpts()},
		"shadowed in a nested FLWOR": {`for $p in /site/people/person ` + hashLet +
			`return (count($l), for $l in $p/@id return count($l))`, vectorOpts()},
		"shadowed by a quantifier": {`for $p in /site/people/person ` + hashLet +
			`where some $l in $p/@id satisfies count($l) = 1 return count($l)`, vectorOpts()},
		"join not vectorized": {`for $p in /site/people/person ` + hashLet +
			`return count($l)`, tuple},
	} {
		p, lets, counts := countJoinMarks(t, tc.src, tc.opts)
		if fired(p, "count-join") != 0 || lets != 0 || counts != 0 {
			t.Errorf("%s: count-join fired (%d lets, %d counts):\n%s", name, lets, counts, p.Explain())
		}
	}
}
