package plan_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xmark"
)

var update = flag.Bool("update", false, "rewrite the EXPLAIN golden files")

// goldenFactor pins the generated document the plans are built against:
// Q4's person constants scale with the cardinalities, so the golden text
// depends on it.
const goldenFactor = 0.005

// TestExplainGolden renders the optimized plan of every query the service
// serves — the twenty XMark queries and the three hybrid keyword queries —
// under each of the seven system profiles and compares them
// against testdata/explain_<ID>.golden, asserting exactly which rewrite
// rules fire on which system — the plan-level reproduction of the
// paper's Table 3 differences. Refresh with:
//
//	go test ./internal/plan -run ExplainGolden -update
//
// The CI race job runs this test alongside the concurrent service tests
// so plan construction is race-checked too.
func TestExplainGolden(t *testing.T) {
	bench := xmark.NewBenchmark(goldenFactor)
	for _, sys := range xmark.Systems() {
		sys := sys
		t.Run(string(sys.ID), func(t *testing.T) {
			t.Parallel()
			inst, err := sys.Load(bench.DocText)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "EXPLAIN golden: system %s (%s), factor %g\n",
				sys.ID, sys.Architecture, goldenFactor)
			for _, q := range xmark.AllQueries() {
				prep, err := inst.Engine.Prepare(bench.QueryText(q.ID))
				if err != nil {
					t.Fatalf("Q%d: %v", q.ID, err)
				}
				fmt.Fprintf(&b, "\n=== Q%d (%s) ===\n%s", q.ID, q.Concept, prep.Explain())
			}
			got := b.String()

			path := filepath.Join("testdata", fmt.Sprintf("explain_%s.golden", sys.ID))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			want := string(wantBytes)
			if got == want {
				return
			}
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
				g, w := "", ""
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Fatalf("explain drift at line %d:\n got: %q\nwant: %q\n(refresh with -update if intended)", i+1, g, w)
				}
			}
			t.Fatalf("explain drift (refresh with -update if intended)")
		})
	}
}
