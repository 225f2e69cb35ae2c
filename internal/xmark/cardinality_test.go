package xmark

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/schema"
)

// absPath matches the leading predicate-free child steps of an absolute
// path in a query text: /site/people/person in
// /site/people/person[@id="person0"]/name.
var absPath = regexp.MustCompile(`/site(?:/[A-Za-z_][A-Za-z0-9_-]*)*`)

// queryPathPrefixes returns every distinct root label path prefix of the
// absolute paths of Q1–Q23, plus two paths that occur nowhere.
func queryPathPrefixes(b *Benchmark) [][]string {
	seen := map[string]bool{}
	var out [][]string
	add := func(p []string) {
		if key := strings.Join(p, "/"); !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	for _, q := range AllQueries() {
		text := b.QueryText(q.ID)
		for _, loc := range absPath.FindAllStringIndex(text, -1) {
			labels := strings.Split(text[loc[0]+1:loc[1]], "/")
			if loc[1] < len(text) && text[loc[1]] == '(' {
				labels = labels[:len(labels)-1] // text() is a kind test
			}
			for i := 1; i <= len(labels); i++ {
				add(labels[:i])
			}
		}
	}
	add([]string{"site", "nosuchpath"})
	add([]string{"nosuchroot"})
	return out
}

// TestStoreCardinalitiesMatchExtents checks the store invariant the
// planner's cost reads rely on: on every system, TagCard answers ok
// exactly when TagExtent does and with the extent's length, PathCard does
// the same for PathExtent, and a CountPath that answers is backed by a
// PathCard with the same value. It is what lets the vectorize gate, the
// hash-join sizing and the compile-time diagnostics read the catalog only,
// with no fallback to materializing extents.
func TestStoreCardinalitiesMatchExtents(t *testing.T) {
	b := bench(t, 0.01)
	instances, err := b.LoadAll(Systems())
	if err != nil {
		t.Fatal(err)
	}
	tags := append(schema.Names(), "nosuchtag")
	paths := queryPathPrefixes(b)
	if len(paths) < 10 {
		t.Fatalf("only %d path prefixes extracted from the queries", len(paths))
	}
	for _, inst := range instances {
		st := inst.Engine.Store()
		id := inst.System.ID
		for _, tag := range tags {
			ext, extOK := st.TagExtent(tag, nil)
			card, cardOK := st.TagCard(tag)
			if cardOK != extOK || (cardOK && card != len(ext)) {
				t.Errorf("system %s tag <%s>: TagCard = (%d, %v), TagExtent has %d ids, ok %v",
					id, tag, card, cardOK, len(ext), extOK)
			}
		}
		for _, path := range paths {
			ext, extOK := st.PathExtent(path, nil)
			card, cardOK := st.PathCard(path)
			if cardOK != extOK || (cardOK && card != len(ext)) {
				t.Errorf("system %s path /%s: PathCard = (%d, %v), PathExtent has %d ids, ok %v",
					id, strings.Join(path, "/"), card, cardOK, len(ext), extOK)
			}
			if n, ok := st.CountPath(path); ok && (!cardOK || n != card) {
				t.Errorf("system %s path /%s: CountPath = %d but PathCard = (%d, %v)",
					id, strings.Join(path, "/"), n, card, cardOK)
			}
		}
	}
}
