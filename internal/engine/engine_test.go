package engine

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapping"
	"repro/internal/nodestore"
	"repro/internal/tree"
)

const sampleDoc = `<site>
<regions>
 <europe>
  <item id="item0"><location>Austria</location><name>Brass Lamp</name>
   <description><text>a fine old lamp with <emph>gold <keyword>inlay</keyword></emph></text></description>
  </item>
  <item id="item1"><location>Denmark</location><name>Oak Desk</name>
   <description><text>heavy desk</text></description>
  </item>
 </europe>
 <australia>
  <item id="item2"><location>Fiji</location><name>Canoe</name>
   <description><text>a dugout canoe</text></description>
  </item>
 </australia>
</regions>
<people>
 <person id="person0"><name>Ada</name><emailaddress>a@x</emailaddress>
  <homepage>http://ada.example/</homepage>
  <profile income="95000.00"><interest category="category0"/><business>Yes</business></profile>
 </person>
 <person id="person1"><name>Bob</name><emailaddress>b@x</emailaddress>
  <profile income="25000.00"><business>No</business></profile>
 </person>
 <person id="person2"><name>Cid</name><emailaddress>c@x</emailaddress>
  <profile income="55000.00"><interest category="category0"/><interest category="category1"/><business>No</business></profile>
 </person>
 <person id="person3"><name>Dot</name><emailaddress>d@x</emailaddress></person>
</people>
<open_auctions>
 <open_auction id="open_auction0">
  <initial>10.00</initial><reserve>30.00</reserve>
  <bidder><date>01/01/2000</date><time>t</time><personref person="person1"/><increase>3.00</increase></bidder>
  <bidder><date>01/02/2000</date><time>t</time><personref person="person2"/><increase>9.00</increase></bidder>
  <current>22.00</current>
  <itemref item="item0"/><seller person="person0"/>
  <annotation><author person="person1"/><happiness>5</happiness></annotation>
  <quantity>1</quantity><type>Regular</type>
  <interval><start>s</start><end>e</end></interval>
 </open_auction>
 <open_auction id="open_auction1">
  <initial>50.00</initial>
  <bidder><date>02/01/2000</date><time>t</time><personref person="person0"/><increase>1.50</increase></bidder>
  <current>51.50</current>
  <itemref item="item1"/><seller person="person1"/>
  <annotation><author person="person2"/><happiness>8</happiness></annotation>
  <quantity>2</quantity><type>Featured</type>
  <interval><start>s</start><end>e</end></interval>
 </open_auction>
</open_auctions>
<closed_auctions>
 <closed_auction>
  <seller person="person0"/><buyer person="person1"/><itemref item="item2"/>
  <price>45.00</price><date>03/03/2000</date><quantity>1</quantity><type>Regular</type>
 </closed_auction>
 <closed_auction>
  <seller person="person2"/><buyer person="person0"/><itemref item="item1"/>
  <price>12.00</price><date>04/04/2000</date><quantity>1</quantity><type>Dutch</type>
 </closed_auction>
</closed_auctions>
</site>`

func sampleStores(t *testing.T) []*Engine {
	t.Helper()
	doc, err := tree.Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	full := Options{PathExtents: true, CountShortcut: true, HashJoins: true, Inlining: true, AttrIndexes: true}
	return []*Engine{
		New(nodestore.NewDOM("dom+summary", doc, nodestore.DOMOptions{Summary: true, TagExtents: true, AttrIndexes: true}), full),
		New(nodestore.NewDOM("dom+extents", doc, nodestore.DOMOptions{TagExtents: true, AttrIndexes: true}), Options{HashJoins: true, AttrIndexes: true}),
		New(nodestore.NewDOM("dom", doc, nodestore.DOMOptions{}), Options{}),
		New(nodestore.NewDOM("naive", doc, nodestore.DOMOptions{}), Options{NaiveStrings: true}),
		New(mapping.NewEdge(doc), Options{HashJoins: true, AttrIndexes: true}),
		New(mapping.NewPath(doc), Options{PathExtents: true, HashJoins: true, AttrIndexes: true}),
		New(mapping.NewInline(doc), Options{PathExtents: true, HashJoins: true, Inlining: true, AttrIndexes: true}),
	}
}

// runAll executes src on every architecture and asserts all serialize to
// the same result, returning it.
func runAll(t *testing.T, src string) string {
	t.Helper()
	engines := sampleStores(t)
	var first string
	for i, e := range engines {
		seq, err := e.Query(src)
		if err != nil {
			t.Fatalf("[%s] %v\nquery: %s", e.Store().Name(), err, src)
		}
		got := SerializeString(e.Store(), seq)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("[%s] result differs:\n%s\nvs [%s]:\n%s\nquery: %s",
				e.Store().Name(), got, engines[0].Store().Name(), first, src)
		}
	}
	return first
}

func TestLiteralAndArithmetic(t *testing.T) {
	if got := runAll(t, `1 + 2 * 3`); got != "7" {
		t.Fatalf("got %q", got)
	}
	if got := runAll(t, `10 div 4`); got != "2.5" {
		t.Fatalf("got %q", got)
	}
	if got := runAll(t, `7 mod 3`); got != "1" {
		t.Fatalf("got %q", got)
	}
	if got := runAll(t, `-(2 + 3)`); got != "-5" {
		t.Fatalf("got %q", got)
	}
}

func TestSimplePath(t *testing.T) {
	got := runAll(t, `for $b in /site/people/person[@id="person0"] return $b/name/text()`)
	if got != "Ada" {
		t.Fatalf("Q1 sample = %q", got)
	}
}

func TestPositionalPredicate(t *testing.T) {
	got := runAll(t, `for $b in /site/open_auctions/open_auction return $b/bidder[1]/increase/text()`)
	if got != "3.00 1.50" {
		t.Fatalf("got %q", got)
	}
	got = runAll(t, `for $b in /site/open_auctions/open_auction return $b/bidder[last()]/increase/text()`)
	if got != "9.00 1.50" {
		t.Fatalf("got %q", got)
	}
}

func TestDescendantAxis(t *testing.T) {
	if got := runAll(t, `count(//item)`); got != "3" {
		t.Fatalf("count(//item) = %q", got)
	}
	if got := runAll(t, `count(/site/regions//item)`); got != "3" {
		t.Fatalf("got %q", got)
	}
	if got := runAll(t, `count(//keyword)`); got != "1" {
		t.Fatalf("got %q", got)
	}
	if got := runAll(t, `count(//nonexistent)`); got != "0" {
		t.Fatalf("got %q", got)
	}
}

func TestWildcardAndTextSteps(t *testing.T) {
	if got := runAll(t, `count(/site/regions/*)`); got != "2" {
		t.Fatalf("regions/* = %q", got)
	}
	got := runAll(t, `for $i in //item[@id="item1"] return $i/description/text/text()`)
	if got != "heavy desk" {
		t.Fatalf("got %q", got)
	}
}

func TestAttributesAndComparisons(t *testing.T) {
	got := runAll(t, `for $p in /site/people/person where $p/profile/@income > 50000 return $p/name/text()`)
	if got != "Ada Cid" {
		t.Fatalf("got %q", got)
	}
	// String comparison on attributes.
	got = runAll(t, `for $p in /site/people/person where $p/@id = "person2" return $p/name/text()`)
	if got != "Cid" {
		t.Fatalf("got %q", got)
	}
}

func TestLetAndCount(t *testing.T) {
	got := runAll(t, `for $p in /site/people/person
		let $a := for $t in /site/closed_auctions/closed_auction where $t/buyer/@person = $p/@id return $t
		return <item person="{$p/name/text()}">{count($a)}</item>`)
	want := `<item person="Ada">1</item><item person="Bob">1</item><item person="Cid">0</item><item person="Dot">0</item>`
	if got != want {
		t.Fatalf("Q8 sample:\n%s\nwant\n%s", got, want)
	}
}

func TestQuantifiedAndOrder(t *testing.T) {
	// person1 bids before person2 in auction0.
	got := runAll(t, `for $b in /site/open_auctions/open_auction
		where some $pr1 in $b/bidder/personref[@person="person1"],
		           $pr2 in $b/bidder/personref[@person="person2"]
		      satisfies $pr1 << $pr2
		return $b/reserve/text()`)
	if got != "30.00" {
		t.Fatalf("Q4 sample = %q", got)
	}
	// Reversed order must not match.
	got = runAll(t, `for $b in /site/open_auctions/open_auction
		where some $pr1 in $b/bidder/personref[@person="person2"],
		           $pr2 in $b/bidder/personref[@person="person1"]
		      satisfies $pr1 << $pr2
		return $b/reserve/text()`)
	if got != "" {
		t.Fatalf("reversed Q4 = %q", got)
	}
}

func TestOrderBy(t *testing.T) {
	got := runAll(t, `for $i in //item let $n := $i/name/text()
		order by zero-or-one($i/location/text()) ascending
		return <item name="{$n}">{$i/location/text()}</item>`)
	want := `<item name="Brass Lamp">Austria</item><item name="Oak Desk">Denmark</item><item name="Canoe">Fiji</item>`
	if got != want {
		t.Fatalf("order by:\n%s", got)
	}
	got = runAll(t, `for $i in //item order by $i/location/text() descending return $i/location/text()`)
	if got != "Fiji Denmark Austria" {
		t.Fatalf("descending = %q", got)
	}
}

// TestOrderByNaN pins XQuery's "empty least" order for number keys: the
// empty key first, then NaN, then the numbers, all reversed by descending,
// with ties (two NaNs, two empties) kept in input order. NaN compared as a
// float is unordered against everything, which left the sort's output
// undefined. Checked in tuple mode (width 1) and at the default width.
func TestOrderByNaN(t *testing.T) {
	// Keys by position: 1→9, 2→(), 3→NaN, 4→7, 5→NaN, 6→(), 7→-1.
	const keyed = `for $i in (1, 2, 3, 4, 5, 6, 7)
		let $k := if ($i = 2 or $i = 6) then ()
			else if ($i = 3 or $i = 5) then number("a")
			else if ($i = 7) then -1 else 11 - 2 * $i `
	e := batchEngine(t)
	for _, tc := range []struct{ src, want string }{
		{`for $x in (3, number("a"), 1, 2) order by $x return $x`, "NaN 1 2 3"},
		{`for $x in (3, number("a"), 1, 2) order by $x descending return $x`, "3 2 1 NaN"},
		{`for $x in (number("a"), 2, number("b"), 1) order by $x return $x`, "NaN NaN 1 2"},
		{keyed + `order by $k return $i`, "2 6 3 5 7 4 1"},
		{keyed + `order by $k descending return $i`, "1 4 7 3 5 2 6"},
	} {
		prep, err := e.Prepare(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		for _, width := range []int{1, 0} {
			if got := serializeWidth(t, prep, nil, width); got != tc.want {
				t.Errorf("width %d: %s\n= %q, want %q", width, tc.src, got, tc.want)
			}
		}
	}
}

func TestEmptyAndMissing(t *testing.T) {
	got := runAll(t, `for $p in /site/people/person where empty($p/homepage/text()) return $p/name/text()`)
	if got != "Bob Cid Dot" {
		t.Fatalf("Q17 sample = %q", got)
	}
	got = runAll(t, `count(for $p in /site/people/person where empty($p/profile/@income) return $p)`)
	if got != "1" {
		t.Fatalf("no-income count = %q", got)
	}
}

func TestContains(t *testing.T) {
	got := runAll(t, `for $i in //item where contains(string(exactly-one($i/description)), "gold") return $i/name/text()`)
	if got != "Brass Lamp" {
		t.Fatalf("Q14 sample = %q", got)
	}
}

func TestUserFunction(t *testing.T) {
	got := runAll(t, `declare function local:convert($v) { 2.20371 * $v };
		for $b in /site/open_auctions/open_auction return local:convert(zero-or-one($b/reserve/text()))`)
	if got != "66.1113" {
		t.Fatalf("Q18 sample = %q", got)
	}
}

func TestIfExpr(t *testing.T) {
	got := runAll(t, `for $p in /site/people/person
		return if ($p/profile/@income >= 50000) then "rich" else "other"`)
	if got != "rich other rich other" {
		t.Fatalf("if = %q", got)
	}
}

func TestDistinctValues(t *testing.T) {
	got := runAll(t, `distinct-values(/site/people/person/profile/interest/@category)`)
	if got != "category0 category1" {
		t.Fatalf("distinct = %q", got)
	}
}

func TestConstructorNesting(t *testing.T) {
	got := runAll(t, `for $p in /site/people/person[@id="person0"]
		return <out><name>{$p/name/text()}</name><mail>{$p/emailaddress/text()}</mail></out>`)
	if got != "<out><name>Ada</name><mail>a@x</mail></out>" {
		t.Fatalf("ctor = %q", got)
	}
}

func TestNodeCopyInConstructor(t *testing.T) {
	// Q13 shape: reconstruction of original fragments.
	got := runAll(t, `for $i in /site/regions/australia/item
		return <item name="{$i/name/text()}">{$i/description}</item>`)
	want := `<item name="Canoe"><description><text>a dugout canoe</text></description></item>`
	if got != want {
		t.Fatalf("Q13 sample:\n%s", got)
	}
}

func TestArithmeticOverEmptyIsEmpty(t *testing.T) {
	got := runAll(t, `for $b in /site/open_auctions/open_auction return 2 * zero-or-one($b/reserve/text())`)
	if got != "60" {
		t.Fatalf("empty arithmetic = %q", got)
	}
}

func TestSumAndNumber(t *testing.T) {
	if got := runAll(t, `sum(/site/closed_auctions/closed_auction/price/text())`); got != "57" {
		t.Fatalf("sum = %q", got)
	}
	if got := runAll(t, `number("12.5") + 0.5`); got != "13" {
		t.Fatalf("number = %q", got)
	}
}

func TestDocumentFunction(t *testing.T) {
	got := runAll(t, `count(document("auction.xml")/site/people/person)`)
	if got != "4" {
		t.Fatalf("document() = %q", got)
	}
}

func TestCommaSequence(t *testing.T) {
	if got := runAll(t, `(1, "two", 3)`); got != "1 two 3" {
		t.Fatalf("sequence = %q", got)
	}
}

func TestCountOverFilteredPath(t *testing.T) {
	got := runAll(t, `count(for $i in /site/closed_auctions/closed_auction where $i/price/text() >= 40 return $i/price)`)
	if got != "1" {
		t.Fatalf("Q5 sample = %q", got)
	}
}

func TestJoinOnValues(t *testing.T) {
	// Q11 shape at miniature scale.
	got := runAll(t, `for $p in /site/people/person
		let $l := for $i in /site/open_auctions/open_auction/initial
			where $p/profile/@income > 5000 * $i/text()
			return $i
		return <items name="{$p/name/text()}">{count($l)}</items>`)
	// Incomes: Ada 95000, Bob 25000, Cid 55000, Dot none. Initials: 10
	// and 50, so the threshold 5000*initial is 50000 or 250000.
	want := `<items name="Ada">1</items><items name="Bob">0</items><items name="Cid">1</items><items name="Dot">0</items>`
	if got != want {
		t.Fatalf("Q11 sample:\n%s", got)
	}
}

func TestErrors(t *testing.T) {
	engines := sampleStores(t)
	e := engines[0]
	cases := []string{
		`$undefined`,
		`nosuchfunction(1)`,
		`exactly-one(/site/people/person)`,
		`contains("a")`,
	}
	for _, src := range cases {
		if _, err := e.Query(src); err == nil {
			t.Errorf("query %q succeeded", src)
		}
	}
}

func TestZeroOrOneViolation(t *testing.T) {
	engines := sampleStores(t)
	if _, err := engines[0].Query(`zero-or-one(/site/people/person)`); err == nil {
		t.Fatal("zero-or-one over 4 items succeeded")
	}
	if err := func() error {
		_, err := engines[0].Query(`zero-or-one(())`)
		return err
	}(); err != nil {
		t.Fatalf("zero-or-one(()) failed: %v", err)
	}
}

func TestCompileVsRunPhases(t *testing.T) {
	engines := sampleStores(t)
	p, err := engines[0].Prepare(`count(//item)`)
	if err != nil {
		t.Fatal(err)
	}
	if p.CompileTime <= 0 {
		t.Fatal("no compile time recorded")
	}
	seq, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if SerializeString(engines[0].Store(), seq) != "3" {
		t.Fatal("wrong result after Prepare/Run")
	}
	// Prepared queries are rerunnable.
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticErrorsCaughtAtPrepare(t *testing.T) {
	engines := sampleStores(t)
	for _, c := range []struct{ src, want string }{
		{`for $a in /site return $b`, "unbound variable $b"},
		// A clause's variable is not in scope in its own sequence.
		{`for $x in $x return $x`, "unbound variable $x"},
		{`let $x := $x return 1`, "unbound variable $x"},
		{`some $a in $b, $b in 1 satisfies $a`, "unbound variable $b"},
		// The message names the first unbound variable.
		{`for $a in $b return $c`, "unbound variable $b"},
		{`declare function local:f($a) { $a }; local:f(1, 2)`, "local:f() expects 1 arguments, got 2"},
		{`local:nope(1)`, "unknown function local:nope()"},
		{`count(nosuch(//item))`, "unknown function nosuch()"},
	} {
		_, err := engines[0].Prepare(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Prepare(%q) = %v, want an error naming %q", c.src, err, c.want)
		}
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	// The same query with joins on and off must agree.
	doc, err := tree.Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	store := nodestore.NewDOM("dom", doc, nodestore.DOMOptions{TagExtents: true})
	src := `for $p in /site/people/person, $t in /site/closed_auctions/closed_auction
		where $t/buyer/@person = $p/@id
		return <r>{$p/name/text()}</r>`
	fast, err := New(store, Options{HashJoins: true}).Query(src)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(store, Options{}).Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if SerializeString(store, fast) != SerializeString(store, slow) {
		t.Fatalf("join results differ:\n%s\nvs\n%s", SerializeString(store, fast), SerializeString(store, slow))
	}
}

func TestSerializeEscapes(t *testing.T) {
	doc, err := tree.Parse([]byte(`<a t="x&quot;y">1 &lt; 2</a>`))
	if err != nil {
		t.Fatal(err)
	}
	store := nodestore.NewDOM("dom", doc, nodestore.DOMOptions{})
	e := New(store, Options{})
	seq, err := e.Query(`/a`)
	if err != nil {
		t.Fatal(err)
	}
	got := SerializeString(store, seq)
	if !strings.Contains(got, "&quot;") || !strings.Contains(got, "&lt;") {
		t.Fatalf("escapes lost: %s", got)
	}
}

func TestMetaProbesDifferByArchitecture(t *testing.T) {
	doc, err := tree.Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	pathEngine := New(mapping.NewPath(doc), Options{PathExtents: true})
	edgeEngine := New(mapping.NewEdge(doc), Options{})
	src := `for $b in /site/people/person return $b/name`
	pp, err := pathEngine.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := edgeEngine.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if pp.MetaProbes == 0 {
		t.Fatal("path engine consulted no metadata at compile time")
	}
	if pe.MetaProbes != 0 {
		t.Fatal("edge engine consulted metadata it does not have")
	}
}

// TestMemoizedSingleFlight pins the memo's cold path: concurrent callers
// of one entry share a single build, and a build that panics publishes
// nothing, so the next caller builds afresh.
func TestMemoizedSingleFlight(t *testing.T) {
	ev := &evaluator{memo: &memo{}}
	var builds atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	build := func() int {
		if builds.Add(1) == 1 {
			close(started)
		}
		<-release
		return 7
	}
	var ready, wg sync.WaitGroup
	got := make([]int, 8)
	for i := range got {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			got[i] = memoized(&evaluator{memo: ev.memo}, "k", false, build)
		}()
	}
	ready.Wait()
	<-started
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent cold callers built %d times, want 1", len(got), n)
	}
	for _, v := range got {
		if v != 7 {
			t.Fatalf("a caller got %d, want 7", v)
		}
	}

	func() {
		defer func() { recover() }()
		memoized(ev, "p", true, func() int { panic("build failed") })
	}()
	if v := memoized(ev, "p", true, func() int { return 9 }); v != 9 {
		t.Fatalf("after a panicked build the entry answered %d, want a fresh build's 9", v)
	}
}

// TestRecursiveJoinBuildSideErrors: a join whose build side calls the
// function the join sits in reaches its own build while building it. The
// run must end in the recursion error, on every store and at both widths,
// not wait on itself.
func TestRecursiveJoinBuildSideErrors(t *testing.T) {
	const src = `declare function local:f() {
  for $p in /site/people/person
  for $b in local:f()
  where $b/@id = $p/@id
  return $p
};
count(local:f())`
	for _, e := range sampleStores(t) {
		p, err := e.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 0} {
			done := make(chan error, 1)
			go func() {
				sess := NewSession()
				sess.BatchSize = width
				done <- p.SerializeSession(io.Discard, sess)
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%s width %d: unbounded recursion did not error", e.Store().Name(), width)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("%s width %d: the run hangs", e.Store().Name(), width)
			}
		}
	}
}
