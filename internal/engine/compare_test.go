package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
)

// compareDoc holds the operand values of the comparison kernel test, each
// as a text node and as an attribute value, plus one mixed-content
// element whose string value spans a child element and a text node.
var compareDoc = func() string {
	var b strings.Builder
	b.WriteString("<r>")
	for _, v := range []string{" 40 ", "", "NaN", "1e3", "-0", "40.00", "40", "abc", "Inf", "-Inf", "true"} {
		fmt.Fprintf(&b, `<v a="%s">%s</v>`, v, v)
	}
	b.WriteString(`<v a="7"><b>4</b>0 </v></r>`)
	return b.String()
}()

// refCompareAtomics is the general comparison of two atomized items as
// the engine defined it before the kernel: numeric if either side is a
// number, boolean (in)equality between two booleans, else strings.
func refCompareAtomics(op compareOp, a, b Item) bool {
	_, aNum := a.(NumItem)
	_, bNum := b.(NumItem)
	if aNum || bNum {
		return compareNumbers(op, refToNumber(a), refToNumber(b))
	}
	if ab, ok := a.(BoolItem); ok {
		if bb, ok2 := b.(BoolItem); ok2 {
			switch op {
			case cmpEq:
				return ab == bb
			case cmpNeq:
				return ab != bb
			}
		}
	}
	x, y := itemString(a), itemString(b)
	switch op {
	case cmpEq:
		return x == y
	case cmpNeq:
		return x != y
	case cmpLt:
		return x < y
	case cmpLe:
		return x <= y
	case cmpGt:
		return x > y
	case cmpGe:
		return x >= y
	}
	return false
}

// refToNumber is the xs:double cast of an atomic, written independently
// of the engine's parseNumber.
func refToNumber(it Item) float64 {
	switch v := it.(type) {
	case NumItem:
		return float64(v)
	case StrItem:
		f, err := strconv.ParseFloat(strings.TrimSpace(string(v)), 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case BoolItem:
		if v {
			return 1
		}
		return 0
	}
	return math.NaN()
}

// refAtomize boxes the atomized value of one item.
func refAtomize(s nodestore.Store, it Item) Item {
	switch v := it.(type) {
	case NodeItem:
		return StrItem(s.StringValue(v.ID))
	case AttrItem:
		return StrItem(v.Value)
	case *Constructed:
		var b strings.Builder
		constructedText(v, &b)
		return StrItem(b.String())
	}
	return it
}

// TestCompareKernelMatchesReference runs every operator with a literal on
// either side against operands of every kind — stored text, a
// mixed-content element and attributes (all reaching the kernel unboxed),
// strings, numbers including NaN, ±Inf and -0, booleans and a constructed
// element — and checks each answer against the boxing reference above.
func TestCompareKernelMatchesReference(t *testing.T) {
	doc, err := tree.Parse([]byte(compareDoc))
	if err != nil {
		t.Fatal(err)
	}
	store := nodestore.NewDOM("cmp", doc, nodestore.DOMOptions{})
	e := New(store, Options{})
	nv := strings.Count(compareDoc, "<v ")
	operands := []string{
		`$v/text()`, `$v`, `$v/@a`, `string($v)`, `number($v)`, `number($v/@a)`,
		`empty($v/text())`, `($v/@a = "true")`, `<c>{$v/text()}</c>`,
	}
	// left[i][k] is operand i of the k-th v, boxed and atomized.
	left := make([][]Seq, len(operands))
	for i, src := range operands {
		left[i] = make([]Seq, nv)
		for k := range left[i] {
			items, err := e.Query(fmt.Sprintf("for $v in /r/v[%d] return %s", k+1, src))
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			for _, it := range items {
				left[i][k] = append(left[i][k], refAtomize(store, it))
			}
		}
	}
	type literal struct {
		src string
		val Item
	}
	var lits []literal
	for _, s := range []string{"40", " 40 ", "", "NaN", "1e3", "-0", "40.00", "true", "abc"} {
		lits = append(lits, literal{strconv.Quote(s), StrItem(s)})
	}
	for _, n := range []string{"40", "40.00", "0", "1000", "7"} {
		f, _ := strconv.ParseFloat(n, 64)
		lits = append(lits, literal{n, NumItem(f)})
	}
	ops := []struct {
		src, flip string
		op        compareOp
	}{{"=", "=", cmpEq}, {"!=", "!=", cmpNeq}, {"<", ">", cmpLt}, {"<=", ">=", cmpLe}, {">", "<", cmpGt}, {">=", "<=", cmpGe}}
	checked := 0
	for i, src := range operands {
		for _, lit := range lits {
			for _, o := range ops {
				for _, litLeft := range []bool{false, true} {
					query := fmt.Sprintf("for $v in /r/v return (%s %s %s)", src, o.src, lit.src)
					if litLeft {
						query = fmt.Sprintf("for $v in /r/v return (%s %s %s)", lit.src, o.flip, src)
					}
					got, err := e.Query(query)
					if err != nil {
						t.Fatalf("%s: %v", query, err)
					}
					if len(got) != nv {
						t.Fatalf("%s: %d answers for %d operands", query, len(got), nv)
					}
					for k, g := range got {
						want := false
						for _, a := range left[i][k] {
							if litLeft {
								want = want || refCompareAtomics(flipped[o.op], lit.val, a)
							} else {
								want = want || refCompareAtomics(o.op, a, lit.val)
							}
						}
						if g != BoolItem(want) {
							t.Errorf("%s, v[%d] (%v): got %v, want %v", query, k+1, left[i][k], g, want)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no comparison checked")
	}
}
