package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
)

// batchTestDoc is sized so the person extent clears the vectorize rule's
// extent gate, with attribute gaps and value runs that make predicate
// verdicts straddle small batch boundaries.
func batchTestDoc() []byte {
	var b strings.Builder
	b.WriteString(`<site><people>`)
	for i := 0; i < 100; i++ {
		if i%7 == 3 {
			// No income attribute: filters must treat it as absent.
			fmt.Fprintf(&b, `<person id="p%d"><name>n%d</name></person>`, i, i)
			continue
		}
		fmt.Fprintf(&b, `<person id="p%d" income="%d"><name>n%d</name><pl><e/><pl><e/></pl></pl></person>`,
			i, i*1000, i)
	}
	b.WriteString(`</people><empty/></site>`)
	return []byte(b.String())
}

// batchEngine builds a System-D-shaped engine (summary, filtered scans,
// path extents) over the batch test document.
func batchEngine(t *testing.T) *Engine {
	t.Helper()
	doc, err := tree.Parse(batchTestDoc())
	if err != nil {
		t.Fatal(err)
	}
	store := nodestore.NewDOM("dom", doc, nodestore.DOMOptions{
		Summary: true, TagExtents: true, AttrIndexes: true, FilteredScans: true})
	return New(store, Options{PathExtents: true, HashJoins: true})
}

// serializeWidth runs prep at one batch width on the given session (a nil
// session gets a fresh one).
func serializeWidth(t *testing.T, prep *Prepared, sess *Session, width int) string {
	t.Helper()
	if sess == nil {
		sess = NewSession()
	}
	sess.BatchSize = width
	var b strings.Builder
	if err := prep.SerializeSession(&b, sess); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// batchWidths are the widths the equivalence tests sweep: strict tuple
// mode, degenerate and boundary-straddling tiny vectors, a width below
// the ramp start, and the engine default.
var batchWidths = []int{1, 2, 3, 5, 63, 0}

// TestBatchTupleEquivalence pins byte-identical output across batch
// widths for the pipeline shapes the vectorize rule marks: plain scans,
// batched child/text/descendant steps, selection-vector filters, filtered
// scans, and counts.
func TestBatchTupleEquivalence(t *testing.T) {
	e := batchEngine(t)
	for _, src := range []string{
		`/site/people/person`,
		`/site/people/person/name/text()`,
		`/site/people/person/pl//e`,
		// Stacked descendant navigations over a nesting tag (pl contains
		// pl): the outer step needs the tuple operator's covered-subtree
		// dedup, so it must not batch — and output must stay identical.
		`(/site/people/person//pl)//e`,
		`count((/site/people/person//pl)//e)`,
		`(/site/people/person)[@income >= 40000]`,
		`(/site/people/person)[name/text() = "n3"]`,
		`/site/people/person[@income >= 40000]/name`,
		`count(/site/people/person)`,
		`count(/site/people/person[@income >= 40000])`,
		`count(/site/people/person[@income < 30000][@income >= 3000])`,
		// Positional and last() filters must stay tuple-wise and still
		// agree at every width.
		`(/site/people/person)[3]/name/text()`,
		`(/site/people/person)[last()]/@id`,
	} {
		prep, err := e.Prepare(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want := serializeWidth(t, prep, nil, 1)
		for _, w := range batchWidths[1:] {
			if got := serializeWidth(t, prep, nil, w); got != want {
				t.Errorf("%s: width %d differs from tuple mode (%d vs %d bytes)",
					src, w, len(got), len(want))
			}
		}
	}
}

// TestBatchEmptyExtent pins the empty-extent edge cases: a path with no
// extent, a filter rejecting every row, and a child step from an empty
// container all serialize to nothing at every width without wedging the
// batch loop.
func TestBatchEmptyExtent(t *testing.T) {
	e := batchEngine(t)
	for _, src := range []string{
		`/site/nothing/here`,
		`(/site/people/person)[@income > 999999999]`,
		`/site/empty/child`,
		`count(/site/people/person[@income > 999999999])`,
	} {
		prep, err := e.Prepare(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, w := range batchWidths {
			got := serializeWidth(t, prep, nil, w)
			want := ""
			if strings.HasPrefix(src, "count") {
				want = "0"
			}
			if got != want {
				t.Errorf("%s width %d = %q, want %q", src, w, got, want)
			}
		}
	}
}

// TestBatchEarlyTermination pins that consumers which stop pulling
// mid-batch — existence probes, positional prefixes, an aborted stream —
// leave the engine consistent, and that the session (with its recycled
// batch buffers) keeps producing byte-identical results afterwards.
func TestBatchEarlyTermination(t *testing.T) {
	e := batchEngine(t)
	sess := NewSession()
	sess.BatchSize = 3 // tiny batches: termination lands mid-pipeline constantly

	exists, err := e.Prepare(`empty(/site/people/person[@income >= 40000])`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Prepare(`(/site/people/person)[1]/@id`)
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.Prepare(`count(/site/people/person[@income >= 40000])`)
	if err != nil {
		t.Fatal(err)
	}
	wantCount := serializeWidth(t, full, nil, 1)

	for i := 0; i < 10; i++ {
		if got := serializeWidth(t, exists, sess, 3); got != "false" {
			t.Fatalf("run %d: exists probe = %q", i, got)
		}
		if got := serializeWidth(t, first, sess, 3); got != "p0" {
			t.Fatalf("run %d: positional probe = %q", i, got)
		}
		// Abort an explicit stream after one item: the execution's batch
		// operators are dropped mid-flight.
		n := 0
		sess.BatchSize = 3
		if err := full.StreamSession(sess, func(Item) bool { n++; return false }); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// The same session must still compute complete answers.
		if got := serializeWidth(t, full, sess, 3); got != wantCount {
			t.Fatalf("run %d: post-abort count = %q, want %q", i, got, wantCount)
		}
	}
}

// TestBatchSessionWidthMix pins recycled-buffer safety when one session
// alternates widths across executions: a buffer grown for one width must
// never corrupt a later execution at another.
func TestBatchSessionWidthMix(t *testing.T) {
	e := batchEngine(t)
	prep, err := e.Prepare(`/site/people/person[@income >= 40000]/name/text()`)
	if err != nil {
		t.Fatal(err)
	}
	want := serializeWidth(t, prep, nil, 1)
	sess := NewSession()
	for i, w := range []int{0, 3, 1024, 2, 0, 5, 1, 63, 0} {
		if got := serializeWidth(t, prep, sess, w); got != want {
			t.Fatalf("execution %d (width %d) differs (%d vs %d bytes)", i, w, len(got), len(want))
		}
	}
}
