package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mapping"
	"repro/internal/nodestore"
	"repro/internal/tree"
)

// joinTestDoc is a join-shaped document: person and auction extents big
// enough to clear the vectorize gate (>= 32), buyer references with heavy
// key duplication (several auctions per person, so matches straddle any
// small batch width), persons with duplicate interest categories (the
// existential build dedup), missing attributes, and an initial extent for
// the theta joins.
func joinTestDoc() []byte {
	var b strings.Builder
	b.WriteString(`<site><people>`)
	for i := 0; i < 50; i++ {
		b.WriteString(`<person id="p` + itoa(i) + `"`)
		if i%5 != 3 {
			b.WriteString(` income="` + itoa(i*700) + `"`)
		}
		b.WriteString(`><profile>`)
		// Duplicate categories within one person: c0 appears twice for
		// every fourth person, so the build side must dedup per item.
		b.WriteString(`<interest category="c` + itoa(i%7) + `"/>`)
		if i%4 == 0 {
			b.WriteString(`<interest category="c` + itoa(i%7) + `"/>`)
		}
		b.WriteString(`</profile></person>`)
	}
	b.WriteString(`</people><closed_auctions>`)
	for i := 0; i < 70; i++ {
		// Buyer keys cycle over 10 persons: each matching person has 7
		// auctions, far more than the tiny test batch widths.
		b.WriteString(`<closed_auction><buyer person="p` + itoa(i%10) + `"/><price>` +
			itoa(40+i) + `</price></closed_auction>`)
	}
	b.WriteString(`</closed_auctions><open_auctions>`)
	for i := 0; i < 40; i++ {
		b.WriteString(`<open_auction><initial>` + itoa(i) + `</initial></open_auction>`)
	}
	b.WriteString(`</open_auctions></site>`)
	return []byte(b.String())
}

func itoa(i int) string { return fmt.Sprintf("%d", i) }

// joinEngines builds one engine per store family the joins must agree on:
// the dictionary-encoded mappings (whose batch joins key by int32 code)
// and the DOM (whose batch joins keep generic string keys).
func joinEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	doc, err := tree.Parse(joinTestDoc())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Engine{
		"path": New(mapping.NewPath(doc),
			Options{PathExtents: true, HashJoins: true, AttrIndexes: true}),
		"edge": New(mapping.NewEdge(doc),
			Options{HashJoins: true, AttrIndexes: true}),
		"dom": New(nodestore.NewDOM("dom", doc, nodestore.DOMOptions{
			Summary: true, TagExtents: true, AttrIndexes: true, FilteredScans: true}),
			Options{PathExtents: true, HashJoins: true, AttrIndexes: true}),
	}
}

// joinQueries are the join shapes of the Q8-Q12 family, plus the edge
// cases: empty build side (a pushed filter rejecting every build row),
// duplicate keys across batch boundaries, a multi-leaf probe path with
// per-item duplicates, and the theta comparisons.
var joinQueries = []string{
	// Q8 shape: equality join on an attribute path, duplicate build keys.
	`for $p in /site/people/person
	 for $t in /site/closed_auctions/closed_auction
	 where $t/buyer/@person = $p/@id
	 return ($p/@id, $t/price/text())`,
	// Let-wrapped count per person (the correlated-aggregate Q8 body).
	`for $p in /site/people/person
	 let $a := for $t in /site/closed_auctions/closed_auction
	           where $t/buyer/@person = $p/@id return $t
	 return count($a)`,
	// Empty build side: the pushed filter rejects every auction, but the
	// scan still clears the vectorize gate (filters don't enter the
	// estimate), so the batch build runs over zero rows.
	`for $p in /site/people/person
	 for $t in /site/closed_auctions/closed_auction[price/text() > 999999]
	 where $t/buyer/@person = $p/@id
	 return $t`,
	// Selection vector surviving through the probe: the build pipeline is
	// scan -> pushed filter, and only the surviving rows may be indexed.
	`for $p in /site/people/person
	 for $t in /site/closed_auctions/closed_auction[price/text() >= 80]
	 where $t/buyer/@person = $p/@id
	 return $t/price/text()`,
	// Multi-leaf probe path with per-person duplicate categories: the
	// build must index each person once per distinct key (existential
	// semantics), at every batch width.
	`for $c in /site/people/person/profile/interest
	 for $p in /site/people/person
	 where $p/profile/interest/@category = $c/@category
	 return $p/@id`,
	// Theta join (Q11/Q12 shape): non-equality conjunct, memoized inner
	// side, including persons with no income attribute.
	`for $p in /site/people/person
	 let $l := for $i in /site/open_auctions/open_auction/initial
	           where $p/@income > (700 * exactly-one($i/text()))
	           return $i
	 return count($l)`,
}

// TestBatchJoinEquivalence pins byte-identical join output across batch
// widths on every store family: width 1 runs the original tuple operators
// (the baseline), every other width runs the batch build, the code-keyed
// index (on the mappings) and the theta operator.
func TestBatchJoinEquivalence(t *testing.T) {
	for name, e := range joinEngines(t) {
		for qi, src := range joinQueries {
			prep, err := e.Prepare(src)
			if err != nil {
				t.Fatalf("%s q%d: %v", name, qi, err)
			}
			want := serializeWidth(t, prep, nil, 1)
			for _, w := range batchWidths[1:] {
				if got := serializeWidth(t, prep, nil, w); got != want {
					t.Errorf("%s q%d: width %d differs from tuple mode (%d vs %d bytes)",
						name, qi, w, len(got), len(want))
				}
			}
		}
	}
}

// TestBatchJoinPlansFire asserts the equivalence sweep actually exercises
// the vectorized operators: the eq joins plan as BatchHashJoin and the
// theta join (numeric keys) as BatchSortJoin on a mapping store.
func TestBatchJoinPlansFire(t *testing.T) {
	e := joinEngines(t)["path"]
	for qi, src := range joinQueries {
		prep, err := e.Prepare(src)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		ex := prep.Explain()
		if !strings.Contains(ex, "BatchHashJoin") && !strings.Contains(ex, "BatchSortJoin") {
			t.Errorf("q%d: no vectorized join in plan:\n%s", qi, ex)
		}
	}
}

// TestBatchJoinEarlyTermination aborts join streams mid-probe on a reused
// session — the memoized index survives the abandoned execution — and
// checks the same session still computes complete, identical answers.
func TestBatchJoinEarlyTermination(t *testing.T) {
	e := joinEngines(t)["path"]
	prep, err := e.Prepare(joinQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	want := serializeWidth(t, prep, nil, 1)
	sess := NewSession()
	for i := 0; i < 5; i++ {
		sess.BatchSize = 3
		n := 0
		if err := prep.StreamSession(sess, func(Item) bool { n++; return n < 3 }); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := serializeWidth(t, prep, sess, 3); got != want {
			t.Fatalf("run %d: post-abort join differs (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// memoEntries lists the indexes of type T a Prepared has memoized in one
// build form.
func memoEntries[T any](p *Prepared, batch bool) []T {
	m := &p.memo.tuple
	if batch {
		m = &p.memo.batch
	}
	var out []T
	m.Range(func(_, v any) bool {
		if idx, ok := v.(T); ok {
			out = append(out, idx)
		}
		return true
	})
	return out
}

// TestBatchJoinSessionCache pins the memoization contract: a join index
// lives on the Prepared, not on the Session. One execution populates the
// plan's memo, an execution on another session reuses the identical index
// object, a width-1 run builds and probes its own tuple-form index, and
// the code-keyed index answers a key through the dictionary translation
// exactly as the tuple index does.
func TestBatchJoinSessionCache(t *testing.T) {
	e := joinEngines(t)["path"]
	prep, err := e.Prepare(joinQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	want := serializeWidth(t, prep, nil, 1)
	if got := serializeWidth(t, prep, NewSession(), 64); got != want {
		t.Fatalf("first batch run differs")
	}
	coded := memoEntries[*joinIndex](prep, true)
	if len(coded) != 1 {
		t.Fatalf("%d batch-form join indexes after a hash-join execution, want 1", len(coded))
	}
	code := coded[0]
	if code.byCode == nil {
		t.Fatal("mapping-store batch join did not build a code-keyed index")
	}
	if got := serializeWidth(t, prep, NewSession(), 64); got != want {
		t.Fatalf("second batch run differs")
	}
	if again := memoEntries[*joinIndex](prep, true); len(again) != 1 || again[0] != code {
		t.Fatal("a second execution on a fresh session rebuilt the join index")
	}
	tuple := memoEntries[*joinIndex](prep, false)
	if len(tuple) != 1 || tuple[0].byKey == nil {
		t.Fatalf("width-1 run left %d tuple-form indexes, want one string-keyed", len(tuple))
	}
	// The dictionary-translation probe (lookup over byCode): every key of
	// the string-keyed tuple index finds the same positions, and a string
	// the dictionary never interned finds none.
	for k, pos := range tuple[0].byKey {
		if got := code.lookup(StrItem(k)); !slices.Equal(got, pos) {
			t.Errorf("key %q: code index %v, string index %v", k, got, pos)
		}
	}
	if got := code.lookup(StrItem("no such person")); got != nil {
		t.Errorf("an uninterned key matched %v", got)
	}
}

// TestSessionResetReleasesJoinMemory pins the retention contract: a
// Session holds no join index, and once a Prepared is dropped its indexes
// (with their materialized build sides) become collectible while the
// session that ran it lives on — observed via a finalizer.
func TestSessionResetReleasesJoinMemory(t *testing.T) {
	e := joinEngines(t)["path"]
	sess := NewSession()
	freed := make(chan struct{})
	for _, src := range []string{joinQueries[0], joinQueries[5]} {
		prep, err := e.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := serializeWidth(t, prep, sess, 64); got == "" {
			t.Fatal("join produced no output")
		}
		joins, thetas := memoEntries[*joinIndex](prep, true), memoEntries[*thetaIndex](prep, true)
		if len(joins)+len(thetas) != 1 {
			t.Fatalf("%s: memo holds %d join and %d theta indexes, want one", src, len(joins), len(thetas))
		}
		if len(joins) == 1 {
			runtime.SetFinalizer(joins[0], func(*joinIndex) { close(freed) })
		}
	}
	sess.Reset()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(sess)
			return
		case <-deadline:
			t.Fatal("joinIndex not collected after its Prepared was dropped: memory is retained")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// thetaTestValues are the spellings a random key or operand draws from:
// integers, decimals, duplicates of both, whitespace-padded numbers (they
// parse), and strings that do not parse — NaN under a numeric comparison,
// plain strings under a string one.
var thetaTestValues = []string{
	"0", "1", "7", "7", "42", "42", "-3", "1000000", "2.5", "2.50", "-0.125", "1e3",
	" 7 ", "\t42", "abc", "", "7x", "NaN",
}

// thetaTestDoc builds a random document of outer <o> and inner <i>
// elements, both extents past the vectorize gate. An inner element carries
// attributes a and b, each present or not; an outer one carries x, y and
// zero to three <v> children.
func thetaTestDoc(r *rand.Rand) []byte {
	val := func() string { return thetaTestValues[r.Intn(len(thetaTestValues))] }
	attr := func(b *strings.Builder, name string) {
		if r.Intn(5) > 0 {
			b.WriteString(` ` + name + `="` + val() + `"`)
		}
	}
	var b strings.Builder
	b.WriteString(`<r><os>`)
	for i := 0; i < 40; i++ {
		b.WriteString(`<o id="o` + itoa(i) + `"`)
		attr(&b, "x")
		attr(&b, "y")
		b.WriteString(`>`)
		for k := r.Intn(4); k > 0; k-- {
			b.WriteString(`<v>` + val() + `</v>`)
		}
		b.WriteString(`</o>`)
	}
	b.WriteString(`</os><is>`)
	for i := 0; i < 48; i++ {
		b.WriteString(`<i id="i` + itoa(i) + `"`)
		attr(&b, "a")
		attr(&b, "b")
		b.WriteString(`/>`)
	}
	b.WriteString(`</is></r>`)
	return []byte(b.String())
}

// TestBatchSortJoinProperty drives the theta-join index — typed sorted keys,
// numeric multi-valued keys, untyped keys — against the for+where pair it
// replaces (width 1) over random key vectors: every comparison operator,
// both operand orders, single-, multi- and zero-valued keys and operands,
// in the emitting form (match order must survive) and the count-only form.
func TestBatchSortJoinProperty(t *testing.T) {
	keys := []string{
		`number($i/@a)`,                  // typed: one number per item, NaN for junk and absent
		`$i/@a * 1`,                      // numeric, absent attribute → no key
		`(number($i/@a), number($i/@b))`, // numeric, two keys per item
		`(number($i/@a), $i/@b * 1)`,     // numeric, one or two keys per item
		`$i/@a`,                          // untyped keys
	}
	operands := []string{
		`$o/@x`,                          // untyped, zero or one value
		`$o/v/text()`,                    // untyped, zero to three values
		`number($o/@x)`,                  // one number, NaN for junk and absent
		`(number($o/@x), number($o/@y))`, // two numbers
		`($o/@x, 7)`,                     // mixed
	}
	typed := 0
	for seed := int64(1); seed <= 2; seed++ {
		doc, err := tree.Parse(thetaTestDoc(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		// No hash joins: "=" must reach the theta operator too.
		e := New(mapping.NewPath(doc), Options{PathExtents: true})
		for _, key := range keys {
			for _, operand := range operands {
				for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
					for _, cond := range []string{key + " " + op + " " + operand, operand + " " + op + " " + key} {
						for form, src := range map[string]string{
							"emit": `for $o in /r/os/o for $i in /r/is/i where ` + cond + ` return ($o/@id, $i/@id)`,
							"count": `for $o in /r/os/o let $l := for $i in /r/is/i where ` + cond +
								` return $i return <c o="{$o/@id}">{count($l)}</c>`,
						} {
							prep, err := e.Prepare(src)
							if err != nil {
								t.Fatalf("%s: %v", src, err)
							}
							ex := prep.Explain()
							if !strings.Contains(ex, "BatchSortJoin") && !strings.Contains(ex, "BatchNestedLoopJoin") {
								t.Fatalf("%s: no vectorized theta join in plan:\n%s", src, ex)
							}
							if form == "count" && !strings.Contains(ex, "[count-only]") {
								t.Fatalf("%s: count-join did not fire:\n%s", src, ex)
							}
							got := serializeWidth(t, prep, nil, 0)
							for _, idx := range memoEntries[*thetaIndex](prep, true) {
								if idx.keys == nil {
									typed++
								}
							}
							if want := serializeWidth(t, prep, nil, 1); got != want {
								t.Errorf("seed %d, %s form, where %s: differs from for+where (%d vs %d bytes)",
									seed, form, cond, len(got), len(want))
							}
						}
					}
				}
			}
		}
	}
	if typed == 0 {
		t.Error("no execution used the typed sorted layout")
	}
}
