package xquery

import (
	"fmt"
	"strings"
	"testing"
)

// TestWalkScopes asserts what Walk's Scope reports at every variable
// reference, context item and call: whether the variable is bound there,
// and whether the node is inside a predicate.
func TestWalkScopes(t *testing.T) {
	for _, c := range []struct {
		src   string
		bound []string
		want  string
	}{
		// A for variable is not in scope in its own sequence.
		{`for $x in $x return $x`, nil, `$x free; $x bound`},
		{`let $a := 1 let $b := $a let $c := $b return ($a, $c, $d)`, nil,
			`$a bound; $b bound; $a bound; $c bound; $d free`},
		{`some $a in $b, $b in 1 satisfies $a = $b`, nil, `$b free; $a bound; $b bound`},
		{`every $a in $a satisfies $a`, nil, `$a free; $a bound`},
		// A FLWOR's variables go out of scope after it.
		{`(for $i in 1 return $i, $i)`, nil, `$i bound; $i free`},
		// Variables passed to Walk are bound everywhere.
		{`$p + $q`, []string{"p"}, `$p bound; $q free`},
		// A FLWOR inside a step predicate: everything in it is in the
		// predicate, and its own variable is bound in its return.
		{`/site/item[for $i in bid return $i = $j]`, nil,
			`. pred; $i bound pred; $j free pred`},
		{`/site/item[position() = last()]/name[count(.) > 1]`, nil,
			`position() pred; last() pred; count() pred; . pred`},
		// A filter's input is outside its predicates.
		{`($s)[. = $y][1]`, nil, `$s free; . pred; $y free pred`},
		{`count($s[position()])`, nil, `count(); $s free; position() pred`},
		// Constructor attributes and content see the enclosing scope.
		{`for $p in //person return <r a="{$p/@id}" b="x{$q}">{count(.)}</r>`, nil,
			`$p bound; $q free; count(); .`},
	} {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		var got []string
		Walk(q.Body, c.bound, func(e Expr, s *Scope) bool {
			var seen string
			switch v := e.(type) {
			case *VarRef:
				seen = "$" + v.Name + map[bool]string{true: " bound", false: " free"}[s.Bound(v.Name)]
			case *ContextItem:
				seen = "."
			case *Call:
				seen = v.Name + "()"
			default:
				return true
			}
			if s.InPred() {
				seen += " pred"
			}
			got = append(got, seen)
			return true
		})
		if g := strings.Join(got, "; "); g != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.src, g, c.want)
		}
	}
}

// TestWalkSkip: a visit that returns false skips the node's
// subexpressions but not its siblings.
func TestWalkSkip(t *testing.T) {
	q, err := Parse(`(count($a), $b)`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	Walk(q.Body, nil, func(e Expr, _ *Scope) bool {
		got = append(got, fmt.Sprintf("%T", e))
		_, call := e.(*Call)
		return !call
	})
	if g := strings.Join(got, " "); g != "*xquery.Sequence *xquery.Call *xquery.VarRef" {
		t.Fatalf("visited %s", g)
	}
}
