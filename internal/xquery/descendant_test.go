package xquery_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmlgen"
	"repro/internal/xquery"
)

// TestDescendantTextAndAttributeRejected pins that a text() or @name step
// after // is a ParseError naming the construct: the engine has no
// descendant-or-self text or attribute step, and these forms used to run
// as child steps with a wrong answer. The benchmark queries use neither.
func TestDescendantTextAndAttributeRejected(t *testing.T) {
	card := xmlgen.Cardinalities{People: 100}
	for _, q := range xmark.AllQueries() {
		if _, err := xquery.Parse(q.Text(card)); err != nil {
			t.Errorf("Q%d: %v", q.ID, err)
		}
	}
	for src, construct := range map[string]string{
		`//text()`:                          "//text()",
		`count(/site//text())`:              "//text()",
		`for $x in /site return $x//text()`: "//text()",
		`//@id`:                             "//@",
		`for $p in //item return $p//@a`:    "//@",
	} {
		_, err := xquery.Parse(src)
		var pe *xquery.ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, construct) {
			t.Errorf("Parse(%q) = %v; want a ParseError naming %s", src, err, construct)
		}
	}
	for _, src := range []string{`/site/text()`, `//item/@id`, `$x//item/text()`} {
		if _, err := xquery.Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}
