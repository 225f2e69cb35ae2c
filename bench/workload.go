package bench

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strings"
)

// Cell is one kind of request: a query on a system. A benchmark query is
// sent by number (QueryID 1-20) and served from xqserve's plan cache; an
// ad-hoc one is sent as Text and compiled per request.
type Cell struct {
	System  string
	QueryID int
	Text    string
	// Label names the query in traces and reports: "Q8", or the template
	// of an ad-hoc text such as "Q14.head".
	Label string
	// Weight is how many times the cell occurs in one cycle of the
	// request sequence.
	Weight int
}

// RefKey identifies the expected result: every system returns the same
// bytes for the same query, so the key leaves the system out.
func (c Cell) RefKey() string {
	if c.QueryID != 0 {
		return c.Label
	}
	return c.Text
}

// Path is the request URL without scheme and host.
func (c Cell) Path() string {
	q := c.Text
	if c.QueryID != 0 {
		q = fmt.Sprint(c.QueryID)
	}
	return "/query?system=" + c.System + "&q=" + url.QueryEscape(q)
}

// Lexicon is what the ad-hoc text templates need to know about the
// generated document; the Oracle supplies it.
type Lexicon struct {
	// Word returns the vocabulary word of a frequency rank (0 = most
	// frequent).
	Word func(rank int) string
	// QueryText returns the source of a benchmark query adapted to the
	// document.
	QueryText func(id int) string
	// People is the number of person elements.
	People int
}

// Workload is one traffic mix. Why each exists is recorded in
// BENCHMARK.json and bench/README.md.
type Workload struct {
	Name string
	// Systems is the -systems set xqserve loads for this workload.
	Systems string
	// TraceEntries is how many leading sequence entries the traced run
	// replays. It is smaller where one entry costs more, so that every
	// traced run fits the same time.
	TraceEntries int

	cells func(rng *rand.Rand, lex Lexicon) ([]Cell, error)
}

// Cells returns the workload's weighted cells for a seed. Only
// adhoc-fulltext draws constants from the seed; the prepared workloads
// have the same cells for every seed and differ in order only.
func (w Workload) Cells(seed int64, lex Lexicon) ([]Cell, error) {
	return w.cells(rand.New(rand.NewSource(seed)), lex)
}

// Sequence returns one cycle of the request sequence: every cell repeated
// by its weight, shuffled by the seed. Entries index into cells. The
// driver replays the cycle from the start when it runs out.
//
// The shuffle is stratified by system: each system's entries are shuffled
// among themselves and the systems then take turns, in a fresh random
// order every turn. A system is the largest cost difference between
// requests of one workload (a keyword search is a scan on F and an index
// probe elsewhere), so an unstratified shuffle of a long cycle gives one
// measurement round visibly more expensive requests than the next.
func Sequence(cells []Cell, seed int64) []int {
	// A different stream from the one that drew the cells' constants.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	var systems []string
	bySystem := map[string][]int{}
	for i, c := range cells {
		if _, seen := bySystem[c.System]; !seen {
			systems = append(systems, c.System)
		}
		for k := 0; k < c.Weight; k++ {
			bySystem[c.System] = append(bySystem[c.System], i)
		}
	}
	total := 0
	for _, sys := range systems {
		entries := bySystem[sys]
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		total += len(entries)
	}
	seq := make([]int, 0, total)
	for len(seq) < total {
		turn := len(seq)
		for _, sys := range systems {
			if entries := bySystem[sys]; len(entries) > 0 {
				seq = append(seq, entries[0])
				bySystem[sys] = entries[1:]
			}
		}
		block := seq[turn:]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	return seq
}

// Workloads returns the four workloads in the order BENCHMARK.json lists
// them.
func Workloads() []Workload {
	return []Workload{
		{
			Name:         "point-prepared",
			Systems:      "ABCDEF",
			TraceEntries: 400,
			cells:        planCache("ABCDEF", map[int]int{1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 15: 1, 16: 1, 17: 1, 18: 1, 20: 1}),
		},
		{
			Name:         "join-heavy",
			Systems:      "BCD",
			TraceEntries: 108,
			cells:        planCache("BCD", map[int]int{8: 8, 9: 8, 11: 1, 12: 1}),
		},
		{
			Name:         "output-heavy",
			Systems:      "ABCDEF",
			TraceEntries: 150,
			cells:        planCache("ABCDEF", map[int]int{2: 1, 10: 1, 13: 1, 17: 1, 19: 1}),
		},
		{
			Name:         "adhoc-fulltext",
			Systems:      "ABCDEF",
			TraceEntries: 400,
			cells:        adhocFulltext,
		},
	}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// planCache builds the cells of a plan-cache workload: every listed system
// crossed with every listed benchmark query at its weight.
func planCache(systems string, weights map[int]int) func(*rand.Rand, Lexicon) ([]Cell, error) {
	return func(*rand.Rand, Lexicon) ([]Cell, error) {
		var cells []Cell
		for _, sys := range systems {
			for qid := 1; qid <= 20; qid++ {
				if w := weights[qid]; w > 0 {
					cells = append(cells, Cell{System: string(sys), QueryID: qid, Label: fmt.Sprintf("Q%d", qid), Weight: w})
				}
			}
		}
		return cells, nil
	}
}

// adhocPool is the number of distinct ad-hoc texts per seed.
const adhocPool = 200

// adhocTemplate produces the k-th of a template's distinct texts.
type adhocTemplate struct {
	label string
	// lo and hi bound the constant the seed draws, without replacement.
	lo, hi int
	text   func(lex Lexicon, n int) string
}

// keyword replaces the "gold" needle of a full-text benchmark query with
// the vocabulary word of rank n.
func keyword(qid int) func(Lexicon, int) string {
	return func(lex Lexicon, n int) string {
		return strings.ReplaceAll(lex.QueryText(qid), `"gold"`, `"`+lex.Word(n)+`"`)
	}
}

var (
	regions   = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}
	countTags = []string{"item", "name", "description", "mailbox", "mail", "text", "keyword", "listitem"}
)

// adhocTemplates are ordered by popularity: text i of the pool uses
// template i mod 10 and the pool is Zipf-weighted by i, so the templates
// whose cost depends least on the drawn constant (the Q1/Q5/Q6 text
// forms) take the most popular ranks and the frequent-word keyword search,
// whose result size swings most with the word, the least popular. That
// keeps the traffic mix — and so the metrics — steady across seeds while
// the texts themselves change.
var adhocTemplates = []adhocTemplate{
	{label: "Q1.text", lo: 0, hi: -1, text: func(lex Lexicon, n int) string {
		return strings.ReplaceAll(lex.QueryText(1), `"person0"`, fmt.Sprintf(`"person%d"`, n))
	}},
	{label: "Q5.text", lo: 5, hi: 300, text: func(lex Lexicon, n int) string {
		return strings.ReplaceAll(lex.QueryText(5), ">= 40", fmt.Sprintf(">= %d", n))
	}},
	{label: "Q6.text", lo: 0, hi: 48, text: func(_ Lexicon, n int) string {
		return fmt.Sprintf("for $b in //site/regions/%s return count($b//%s)", regions[n%6], countTags[n/6])
	}},
	{label: "Q14.rare", lo: 4096, hi: 17000, text: keyword(14)},
	{label: "Q14.tail", lo: 512, hi: 4096, text: keyword(14)},
	{label: "Q21", lo: 32, hi: 4096, text: keyword(21)},
	{label: "Q14.mid", lo: 32, hi: 512, text: keyword(14)},
	{label: "Q22", lo: 32, hi: 4096, text: keyword(22)},
	{label: "Q23", lo: 32, hi: 4096, text: keyword(23)},
	{label: "Q14.head", lo: 0, hi: 32, text: keyword(14)},
}

// adhocFulltext builds the ad-hoc pool: 200 distinct texts, each on all
// six systems, text i weighted 16/(i+1) (at least 1) — a Zipf law, so a
// text-keyed plan cache smaller than the pool would hit on some requests
// and miss on others.
func adhocFulltext(rng *rand.Rand, lex Lexicon) ([]Cell, error) {
	perTemplate := adhocPool / len(adhocTemplates)
	draws := make([][]int, len(adhocTemplates))
	for t, tpl := range adhocTemplates {
		hi := tpl.hi
		if hi < 0 {
			hi = lex.People
		}
		perm := rng.Perm(hi - tpl.lo)
		if len(perm) < perTemplate {
			return nil, fmt.Errorf("bench: template %s has %d constants at this factor, needs %d", tpl.label, len(perm), perTemplate)
		}
		for _, p := range perm[:perTemplate] {
			draws[t] = append(draws[t], tpl.lo+p)
		}
	}
	var cells []Cell
	for i := 0; i < adhocPool; i++ {
		t := i % len(adhocTemplates)
		tpl := adhocTemplates[t]
		text := tpl.text(lex, draws[t][i/len(adhocTemplates)])
		weight := int(math.Max(1, math.Round(16/float64(i+1))))
		for _, sys := range "ABCDEF" {
			cells = append(cells, Cell{System: string(sys), Text: text, Label: tpl.label, Weight: weight})
		}
	}
	return cells, nil
}
