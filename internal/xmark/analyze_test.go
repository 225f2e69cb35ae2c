package xmark

import (
	"io"
	"regexp"
	"strconv"
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

// analyzeTiming matches the report's wall-time fields, which differ from
// run to run.
var analyzeTiming = regexp.MustCompile(`time=[0-9.]+ms|analyze: exec [0-9.]+ms`)

// TestAnalyzeCountsBuildSideEveryRun pins that EXPLAIN ANALYZE builds its
// joins' build sides afresh on every run: after a plain run has memoized
// them on the Prepared, two analyzed runs on the same Prepared and session
// report the same counters, and each join's build-side scan reports the
// rows it read.
func TestAnalyzeCountsBuildSideEveryRun(t *testing.T) {
	b := bench(t, 0.01)
	for _, sid := range []SystemID{SystemB, SystemD} {
		sys, err := SystemByID(sid)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sys.Load(b.DocText)
		if err != nil {
			t.Fatal(err)
		}
		for _, qid := range []int{8, 9, 11, 12} {
			prep, err := inst.Engine.Prepare(b.QueryText(qid))
			if err != nil {
				t.Fatal(err)
			}
			sess := engine.NewSession()
			if err := prep.SerializeSession(io.Discard, sess); err != nil {
				t.Fatal(err)
			}
			var reports [2]string
			for i := range reports {
				a, err := prep.ExplainAnalyze(io.Discard, sess)
				if err != nil {
					t.Fatal(err)
				}
				reports[i] = analyzeTiming.ReplaceAllString(a.Report, "time")
			}
			if reports[0] != reports[1] {
				t.Errorf("Q%d on %s: two analyzed runs differ:\n%s\n%s", qid, sid, reports[0], reports[1])
			}
			lines := strings.Split(reports[0], "\n")
			joins := 0
			for i, l := range lines {
				if !strings.Contains(l, "Join ") {
					continue
				}
				joins++
				if i+1 == len(lines) || !strings.Contains(lines[i+1], "ids=") && !strings.Contains(lines[i+1], "rows=") {
					t.Errorf("Q%d on %s: the build side of %q reports no rows:\n%s", qid, sid, strings.TrimSpace(l), reports[0])
				}
			}
			if joins == 0 {
				t.Errorf("Q%d on %s: no join in the plan:\n%s", qid, sid, reports[0])
			}
		}
	}
}

// gatherLine matches a Gather operator's counters in an ANALYZE report:
// its own rows, the fan-out and the rows each morsel produced.
var gatherLine = regexp.MustCompile(`Gather .*\{rows=(\d+), .*fanout=(\d+), morsel rows=\[([0-9 ]*)\]`)

// TestAnalyzeReportsGatherFanout pins EXPLAIN ANALYZE as the instrument of
// a gather's fan-out: Q8 on System D at degree 2, tuple-at-a-time and at
// the default width, reports fanout=2 on its Gather, one morsel row count
// per partition, and morsel rows that sum to the rows the Gather emitted.
func TestAnalyzeReportsGatherFanout(t *testing.T) {
	b := bench(t, 0.01)
	sys, err := SystemByID(SystemD)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sys.Load(b.DocText)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := inst.Engine.Prepare(b.QueryText(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 0} {
		sess := engine.NewSession()
		sess.Degree = 2
		sess.BatchSize = width
		a, err := prep.ExplainAnalyze(io.Discard, sess)
		if err != nil {
			t.Fatal(err)
		}
		m := gatherLine.FindStringSubmatch(a.Report)
		if m == nil {
			t.Fatalf("width %d: no fanned-out Gather in the report:\n%s", width, a.Report)
		}
		if m[2] != "2" {
			t.Errorf("width %d: fanout=%s, want 2:\n%s", width, m[2], a.Report)
		}
		morsels := strings.Fields(m[3])
		sum := 0
		for _, r := range morsels {
			n, err := strconv.Atoi(r)
			if err != nil {
				t.Fatal(err)
			}
			sum += n
		}
		if rows, _ := strconv.Atoi(m[1]); len(morsels) != 2 || sum != rows || rows == 0 {
			t.Errorf("width %d: morsel rows %v sum to %d, want 2 morsels summing to the Gather's rows=%d:\n%s",
				width, morsels, sum, rows, a.Report)
		}
	}
}

// TestAnalyzeRowsMatchItemsWritten pins EXPLAIN ANALYZE over push
// emission, on every system, tuple-at-a-time and at the default width:
// each row below reports rows= equal to the items its operator wrote.
// Q13's return constructor writes its elements straight into the writer
// and reports no next=, since nothing pulls it. Q1's return path and
// Q13's $i/description part (pulled at width 1, a BatchConstruct part at
// the default width) are counted once, by their iterator, not again by
// the push that pulled them.
func TestAnalyzeRowsMatchItemsWritten(t *testing.T) {
	b := bench(t, 0.01)
	instances, err := b.LoadAll(Systems())
	if err != nil {
		t.Fatal(err)
	}
	count := func(tag string) func(out, report string) int {
		return func(out, _ string) int { return strings.Count(out, tag) }
	}
	serializeRows := regexp.MustCompile(`(?m)^Serialize  \{rows=(\d+),`)
	cases := []struct {
		q    int
		row  *regexp.Regexp
		want func(out, report string) int
	}{
		{13, regexp.MustCompile(`(?:Element|BatchConstruct) <item>  \{rows=(\d+), time=`), count("<item ")},
		{13, regexp.MustCompile(`\$i/description  \{rows=(\d+),`), count("<description>")},
		{1, regexp.MustCompile(`return: \$b/name/text\(\)(?:\{inline\})?  \{rows=(\d+),`), func(_, report string) int {
			m := serializeRows.FindStringSubmatch(report)
			if m == nil {
				return -1
			}
			n, _ := strconv.Atoi(m[1])
			return n
		}},
	}
	for _, c := range cases {
		for _, inst := range instances {
			prep, err := inst.Engine.Prepare(b.QueryText(c.q))
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{1, 0} {
				sess := engine.NewSession()
				sess.BatchSize = width
				var out strings.Builder
				a, err := prep.ExplainAnalyze(&out, sess)
				if err != nil {
					t.Fatal(err)
				}
				m := c.row.FindStringSubmatch(a.Report)
				if m == nil {
					t.Fatalf("Q%d system %s width %d: no rows= on %v:\n%s", c.q, inst.System.ID, width, c.row, a.Report)
				}
				if want := c.want(out.String(), a.Report); m[1] != strconv.Itoa(want) || want <= 0 {
					t.Errorf("Q%d system %s width %d: %v reports rows=%s, wrote %d items:\n%s", c.q, inst.System.ID, width, c.row, m[1], want, a.Report)
				}
			}
		}
	}
}
