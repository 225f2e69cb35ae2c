package bench

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	tr := NewTrace()
	at := func(usec int) time.Time { return tr.t0.Add(time.Duration(usec) * time.Microsecond) }
	c := Cell{System: "D", Label: "Q8"}
	root := tr.Add(0, "request", c, "r1", at(0), at(100))
	a := tr.Add(root, "a", c, "r1", at(10), at(40))
	tr.Add(root, "b", c, "r1", at(30), at(60))                          // overlaps a by 10
	tr.Add(root, "c", c, "r1", at(90), at(120))                         // runs 20 past its parent
	tr.AddAttributed(a, "a.inner", c, "r1", at(10), 5*time.Microsecond) // grandchild: only a's concern
	other := tr.Add(0, "request", Cell{System: "F", Label: "Q1"}, "r2", at(200), at(250))

	self := SelfTimes(tr.Spans)
	// Children cover 10-60 and 90-100 of the root: 60 of its 100.
	if got := self[root]; got != 40 {
		t.Errorf("root self time = %v us, want 40", got)
	}
	if got := self[a]; got != 25 {
		t.Errorf("self time of a = %v us, want 25", got)
	}
	if got := self[other]; got != 50 {
		t.Errorf("childless span self time = %v us, want 50", got)
	}
	byName := SelfTimeByName(tr.Spans)
	if got := byName["request"]; got != 90 {
		t.Errorf("self time of all request spans = %v us, want 90", got)
	}
	if !tr.Spans[4].Attributed || tr.Spans[0].Attributed {
		t.Error("only the AddAttributed span is marked attributed")
	}
}
