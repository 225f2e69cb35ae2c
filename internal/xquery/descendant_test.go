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

// TestDescendantPositionalPredicateRejected pins that a positional
// predicate on a // step is a ParseError naming the step: the engine
// applies it to the whole descendant sequence, where //item[1] means the
// first item child of every node. A position over the whole sequence, a
// positional predicate on a child step, and boolean // predicates (also
// ones whose nested predicates are positional) still parse.
func TestDescendantPositionalPredicateRejected(t *testing.T) {
	for src, construct := range map[string]string{
		`count(//item[1])`:                   "//item[",
		`count(/site//item[1])`:              "//item[",
		`count(/site/regions//item[last()])`: "//item[",
		`//item[position() = 2]`:             "//item[",
		`$x//bidder[position() < last()]`:    "//bidder[",
		`//*[3]`:                             "//*[",
	} {
		_, err := xquery.Parse(src)
		var pe *xquery.ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "positional predicate") || !strings.Contains(pe.Msg, construct) {
			t.Errorf("Parse(%q) = %v; want a ParseError naming %s", src, err, construct)
		}
	}
	for _, src := range []string{
		`(//item)[1]`,
		`/site/regions/*/item[1]`,
		`//item[contains(description, "gold")]`,
		`//item[@id = "item0"]`,
		`//open_auction[bidder[1]/increase > 10]`,
		`//open_auction[count(bidder[last()]) = 1]`,
	} {
		if _, err := xquery.Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}
