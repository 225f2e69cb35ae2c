package xmark

import (
	"io"
	"testing"

	"repro/internal/engine"
)

// TestTuplePathAllocs pins the allocations of one warm execution through
// SerializeSession at factor 0.01: the tuple-path queries on the three
// systems that only have the tuple path (A, E and F) — Q5 (a where-clause
// comparison and a count over a FLWOR), Q17 (empty() and a constructor per
// person) and Q20 (counts over predicated step chains) — and the
// construction queries Q9 (a correlated inner join per person) and Q10 (a
// large constructed answer) on B, C and D. Each ceiling is the count at
// the change that pushed constructors straight into the writer, plus
// about a quarter for headroom; the comment beside it is the count before
// that change (and, for A, E and F, before counts, comparisons and
// bindings worked on NodeIDs and store strings). What remains is what the
// store contract or an unrewritten operator needs: on A one filtered
// cursor per person for each pushed-down count of Q20, Q9's inner FLWOR
// operators, opened once per person, and Q10's distinct-values.
func TestTuplePathAllocs(t *testing.T) {
	b := bench(t, 0.01)
	ceilings := []struct {
		sys     SystemID
		query   int
		ceiling float64
	}{
		{SystemA, 5, 11},   // was 9, first 1312
		{SystemE, 5, 11},   // was 9, first 1312
		{SystemF, 5, 11},   // was 9, first 1312
		{SystemA, 17, 13},  // was 132, first 2686
		{SystemE, 17, 13},  // was 132, first 2686
		{SystemF, 17, 13},  // was 132, first 2686
		{SystemA, 20, 970}, // was 793, first 5082
		{SystemE, 20, 21},  // was 28, first 8639
		{SystemF, 20, 21},  // was 28, first 8639
		{SystemB, 9, 1530}, // was 1939
		{SystemC, 9, 1530}, // was 1938
		{SystemD, 9, 1530}, // was 1939
		{SystemB, 10, 535}, // was 5546
		{SystemC, 10, 535}, // was 5545
		{SystemD, 10, 535}, // was 5546
	}
	insts := map[SystemID]*Instance{}
	for _, c := range ceilings {
		inst := insts[c.sys]
		if inst == nil {
			sys, err := SystemByID(c.sys)
			if err != nil {
				t.Fatal(err)
			}
			if inst, err = sys.Load(b.DocText); err != nil {
				t.Fatal(err)
			}
			insts[c.sys] = inst
		}
		prep, err := inst.Engine.Prepare(b.QueryText(c.query))
		if err != nil {
			t.Fatal(err)
		}
		sess := engine.NewSession()
		run := func() {
			if err := prep.SerializeSession(io.Discard, sess); err != nil {
				t.Fatal(err)
			}
			sess.Reset()
		}
		run() // warm the session's free lists
		if got := testing.AllocsPerRun(20, run); got > c.ceiling {
			t.Errorf("Q%d on %s: %.0f allocations per execution, ceiling %.0f", c.query, c.sys, got, c.ceiling)
		}
	}
}
