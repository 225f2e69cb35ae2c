package xmark

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestAnalyzeByteIdenticalAllQueries is the instrumentation-neutrality
// net: EXPLAIN ANALYZE wraps every operator with counters, so for every
// query on every system — sequential and fanned out, tuple-at-a-time and
// at the default vector width — the instrumented run must serialize
// exactly the bytes of the uninstrumented run, and its report must carry
// operator timings. Observing the pipeline may never
// change it.
func TestAnalyzeByteIdenticalAllQueries(t *testing.T) {
	b := bench(t, 0.01)
	instances, err := b.LoadAll(Systems())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		text := b.QueryText(q.ID)
		for _, inst := range instances {
			prep, err := inst.Engine.Prepare(text)
			if err != nil {
				t.Fatalf("Q%d system %s: %v", q.ID, inst.System.ID, err)
			}
			want := serializeWith(t, prep, 1, 1)
			for _, degree := range []int{1, 8} {
				for _, width := range []int{1, 0} {
					sess := engine.NewSession()
					sess.Degree = degree
					sess.BatchSize = width
					var out strings.Builder
					a, err := prep.ExplainAnalyze(&out, sess)
					if err != nil {
						t.Fatalf("Q%d system %s degree %d width %d: %v",
							q.ID, inst.System.ID, degree, width, err)
					}
					if out.String() != want {
						t.Errorf("Q%d system %s degree %d width %d: analyze output differs (%d vs %d bytes)",
							q.ID, inst.System.ID, degree, width, len(out.String()), len(want))
					}
					if !strings.Contains(a.Report, "time=") {
						t.Errorf("Q%d system %s degree %d width %d: report carries no timings:\n%s",
							q.ID, inst.System.ID, degree, width, a.Report)
					}
				}
			}
		}
	}
}

// TestAnalyzeOptionLeavesReportOnSession pins EXPLAIN ANALYZE on a
// reused Session, the way /analyze and xquery -analyze run it: the
// instrumented run writes exactly what SerializeSession writes, returns a
// non-empty report with per-operator rows, and leaves nothing on the
// Session that changes the next plain run.
func TestAnalyzeOptionLeavesReportOnSession(t *testing.T) {
	b := bench(t, 0.002)
	sys, err := SystemByID(SystemD)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sys.Load(b.DocText)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := inst.Engine.Prepare(b.QueryText(1))
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.NewSession()
	var want strings.Builder
	if err := prep.SerializeSession(&want, sess); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	a, err := prep.ExplainAnalyze(&got, sess)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("ExplainAnalyze changed the output (%d vs %d bytes)", got.Len(), want.Len())
	}
	if !strings.Contains(a.Report, "rows=") {
		t.Fatalf("ExplainAnalyze left a report without per-operator rows:\n%s", a.Report)
	}
	var after strings.Builder
	if err := prep.SerializeSession(&after, sess); err != nil {
		t.Fatal(err)
	}
	if after.String() != want.String() {
		t.Errorf("the plain run after ExplainAnalyze changed the output (%d vs %d bytes)", after.Len(), want.Len())
	}
}
