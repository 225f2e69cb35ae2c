package xquery_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xmark"
	"repro/internal/xmlgen"
	"repro/internal/xquery"
)

// nestParens is a query of exactly depth levels: depth-1 parentheses
// around a literal, the body itself being the outermost level.
func nestParens(depth int) string {
	return strings.Repeat("(", depth-1) + "1" + strings.Repeat(")", depth-1)
}

// nestCtors nests n element constructors, each holding the next in an
// enclosed expression: two levels apiece, the constructor and its braces.
func nestCtors(n int) string {
	return strings.Repeat("<a>{", n) + "1" + strings.Repeat("}</a>", n)
}

// TestParseDepthLimit pins the nesting bound: every benchmark query
// parses, a query exactly MaxDepth deep parses, one level more is a
// ParseError naming the limit, and the same holds for constructors and
// unary minus, the other recursive forms.
func TestParseDepthLimit(t *testing.T) {
	card := xmlgen.Cardinalities{People: 100}
	for _, q := range xmark.AllQueries() {
		if _, err := xquery.Parse(q.Text(card)); err != nil {
			t.Errorf("Q%d: %v", q.ID, err)
		}
	}
	if _, err := xquery.Parse(nestParens(xquery.MaxDepth)); err != nil {
		t.Errorf("depth %d: %v", xquery.MaxDepth, err)
	}
	limit := fmt.Sprintf("limit of %d levels", xquery.MaxDepth)
	// The body is level 1 and each constructor adds two, so MaxDepth/2
	// constructors end one level short of the limit.
	for name, src := range map[string]string{
		"parentheses":  nestParens(xquery.MaxDepth + 1),
		"constructors": nestCtors(xquery.MaxDepth / 2),
		"unary minus":  strings.Repeat("-", xquery.MaxDepth) + "1",
	} {
		_, err := xquery.Parse(src)
		var pe *xquery.ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, limit) {
			t.Errorf("%s one level past the limit: got %v, want a ParseError naming the %s", name, err, limit)
		}
	}
	if _, err := xquery.Parse(nestCtors(xquery.MaxDepth/2 - 1)); err != nil {
		t.Errorf("%d nested constructors: %v", xquery.MaxDepth/2-1, err)
	}
	if _, err := xquery.Parse(strings.Repeat("-", xquery.MaxDepth-1) + "1"); err != nil {
		t.Errorf("%d unary minus signs: %v", xquery.MaxDepth-1, err)
	}
}

// TestParseDeepInputFailsFast feeds a megabyte of nesting: the parse
// must stop at the limit instead of recursing through the whole input.
func TestParseDeepInputFailsFast(t *testing.T) {
	for name, src := range map[string]string{
		"parentheses":  nestParens(1 << 20),
		"constructors": nestCtors(1 << 20 / 9),
	} {
		start := time.Now()
		_, err := xquery.Parse(src)
		if elapsed := time.Since(start); err == nil || elapsed > 100*time.Millisecond {
			t.Errorf("%s, %d bytes: err %v after %v; want a parse error within 100ms", name, len(src), err, elapsed)
		}
	}
}

// TestParseErrorEndsDescent pins that the parser stops descending once it
// has an error. The current token no longer advances then, so a keyword
// that opens an expression without consuming input ("if" before its
// parenthesis) used to recurse three ways per level down to MaxDepth:
// some 3^256 calls, which ran out of memory instead of returning.
func TestParseErrorEndsDescent(t *testing.T) {
	for _, src := range []string{`some $a if 1`, `for $x if 1`, `let $x if 1`} {
		done := make(chan error, 1)
		go func() {
			_, err := xquery.Parse(src)
			done <- err
		}()
		select {
		case err := <-done:
			var pe *xquery.ParseError
			if !errors.As(err, &pe) {
				t.Errorf("Parse(%q) = %v; want a ParseError", src, err)
			}
		case <-time.After(100 * time.Millisecond):
			t.Fatalf("Parse(%q) did not return within 100ms", src)
		}
	}
}
