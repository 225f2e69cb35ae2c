package xmark

import (
	"io"
	"testing"

	"repro/internal/engine"
)

// TestTuplePathAllocs pins the allocations of one warm execution of the
// tuple-path queries on the three systems that only have the tuple path
// (A, E and F), at factor 0.01: Q5 (a where-clause comparison and a count
// over a FLWOR), Q17 (empty() and a constructor per person) and Q20 (counts
// over predicated step chains). Each ceiling is the count at the change
// that made counts, comparisons and bindings work on NodeIDs and store
// strings, plus about a quarter for headroom; the comment beside it is the
// count before that change. What remains is what the result or the store
// contract needs: constructed elements, the result items they hold, and on
// A one filtered cursor per person for each pushed-down count of Q20.
func TestTuplePathAllocs(t *testing.T) {
	b := bench(t, 0.01)
	ceilings := []struct {
		sys     SystemID
		query   int
		ceiling float64
	}{
		{SystemA, 5, 20},    // was 1312
		{SystemE, 5, 20},    // was 1312
		{SystemF, 5, 20},    // was 1312
		{SystemA, 17, 170},  // was 2686
		{SystemE, 17, 170},  // was 2686
		{SystemF, 17, 170},  // was 2686
		{SystemA, 20, 1000}, // was 5082
		{SystemE, 20, 50},   // was 8639
		{SystemF, 20, 50},   // was 8639
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
