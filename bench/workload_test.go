package bench

import (
	"fmt"
	"strings"
	"testing"
)

// fakeLexicon stands in for the generated document: the templates only
// need the constants they replace to be present.
var fakeLexicon = Lexicon{
	Word:   func(rank int) string { return fmt.Sprintf("w%d", rank) },
	People: 2550,
	QueryText: func(id int) string {
		return fmt.Sprintf(`Q%d "person0" >= 40 "gold"`, id)
	},
}

// wire renders what the server would receive for a seed, byte for byte.
func wire(t *testing.T, w Workload, seed int64) string {
	t.Helper()
	cells, err := w.Cells(seed, fakeLexicon)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, i := range Sequence(cells, seed) {
		b.WriteString(cells[i].Path())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads() {
		if wire(t, w, 7) != wire(t, w, 7) {
			t.Errorf("%s: the same seed gave two different sequences", w.Name)
		}
		if wire(t, w, 7) == wire(t, w, 8) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.Name)
		}
	}
}

func TestJoinHeavyWeights(t *testing.T) {
	w, err := WorkloadByName("join-heavy")
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := w.Cells(1, fakeLexicon)
	count := map[string]int{}
	for _, i := range Sequence(cells, 1) {
		count[cells[i].Label]++
	}
	if count["Q8"] != 24 || count["Q9"] != 24 || count["Q11"] != 3 || count["Q12"] != 3 {
		t.Errorf("one cycle holds %v, want Q8:Q9:Q11:Q12 = 24:24:3:3", count)
	}
}

func TestAdhocPoolIsDistinctAndSkewed(t *testing.T) {
	w, err := WorkloadByName("adhoc-fulltext")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := w.Cells(3, fakeLexicon)
	if err != nil {
		t.Fatal(err)
	}
	weight := map[string]int{}
	for _, c := range cells {
		if c.QueryID != 0 {
			t.Fatalf("ad-hoc cell %s is sent by number", c.Label)
		}
		if c.System == "A" {
			weight[c.Text] = c.Weight
		}
	}
	if len(weight) != adhocPool {
		t.Errorf("%d distinct texts, want %d", len(weight), adhocPool)
	}
	if first, last := cells[0].Weight, cells[len(cells)-1].Weight; first != 16 || last != 1 {
		t.Errorf("weights run from %d to %d, want 16 to 1", first, last)
	}
	if _, err := w.Cells(3, Lexicon{Word: fakeLexicon.Word, QueryText: fakeLexicon.QueryText, People: 5}); err == nil {
		t.Error("a document with 5 people cannot supply 20 distinct Q1 texts, yet Cells succeeded")
	}
}
