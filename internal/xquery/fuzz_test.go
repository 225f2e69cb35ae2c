package xquery_test

import (
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmlgen"
	"repro/internal/xquery"
)

// FuzzParseUnparse checks that any text Parse accepts round-trips: the
// Unparse output parses again, and unparsing that parse reproduces it
// byte for byte. The corpus is seeded with the benchmark's query texts;
// inputs it once failed on live in testdata/fuzz/FuzzParseUnparse, where
// plain go test replays them.
func FuzzParseUnparse(f *testing.F) {
	card := xmlgen.Cardinalities{People: 100}
	for _, q := range xmark.AllQueries() {
		f.Add(q.Text(card))
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := xquery.Parse(src)
		if err != nil {
			return
		}
		text := xquery.Unparse(q)
		again, err := xquery.Parse(text)
		if err != nil {
			t.Fatalf("Unparse output does not parse: %v\n%s", err, text)
		}
		if fixed := xquery.Unparse(again); fixed != text {
			t.Fatalf("Unparse is not a fixed point:\n%s\n%s", text, fixed)
		}
	})
}
