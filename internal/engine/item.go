// Package engine evaluates the XQuery subset over any nodestore.Store.
//
// The same evaluator runs on every storage architecture of the benchmark;
// engine Options select the optimizations the paper attributes to the
// individual systems (path-extent access, structural-summary count
// shortcuts, hash-join acceleration of value joins, DTD-driven inlining).
// System G, the embedded processor, runs the same evaluator with every
// optimization off plus deliberate per-step string materialization,
// reproducing the constant-factor overheads of Figure 4.
//
// Evaluation is a pull-based, Volcano-style pipeline: expressions compile
// to composed Iterators (and FLWOR clauses to tuple iterators) that pull
// items on demand from the store's cursors, so intermediate sequences are
// materialized only where the semantics require a whole sequence — sorts,
// duplicate elimination after descendant steps, last(), hash-join build
// sides, and variable bindings. See DESIGN.md for the operator inventory.
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/tree"
	"repro/internal/xquery"
)

// Item is one XQuery data model item: a stored node, an attribute node, a
// constructed element, or an atomic value.
type Item interface{ isItem() }

// NodeItem references a node in the loaded document store.
type NodeItem struct {
	ID tree.NodeID
}

// AttrItem is an attribute node.
type AttrItem struct {
	Owner tree.NodeID // tree.Nil for constructed attributes
	Name  string
	Value string
}

// Constructed is an element created by a constructor expression.
type Constructed struct {
	Tag      string
	Attrs    []tree.Attr
	Children []Item // StrItem, *Constructed, NodeItem, AttrItem
}

// DocItem is the virtual document node above the root element; "/" and
// document("auction.xml") evaluate to it, so the absolute step /site
// selects the root element by name.
type DocItem struct{}

// StrItem is an atomic string (including untyped atomics from text nodes).
type StrItem string

// NumItem is an atomic number; the subset computes over xs:double.
type NumItem float64

// BoolItem is an atomic boolean.
type BoolItem bool

func (NodeItem) isItem()     {}
func (DocItem) isItem()      {}
func (AttrItem) isItem()     {}
func (*Constructed) isItem() {}
func (StrItem) isItem()      {}
func (NumItem) isItem()      {}
func (BoolItem) isItem()     {}

// Seq is a materialized item sequence, the universal value of the data
// model. Evaluation produces Seqs only at explicit materialization points
// (variable bindings, sorts, Run); everywhere else values flow through
// Iterators. Iter adapts a Seq back into the pipeline.
type Seq []Item

// evalError aborts evaluation; Run recovers it into an error return.
type evalError struct{ msg string }

func (e *evalError) Error() string { return "engine: " + e.msg }

func errf(format string, args ...interface{}) {
	panic(&evalError{msg: fmt.Sprintf(format, args...)})
}

// atomize converts an item to its atomic value: nodes to their untyped
// string value, atomics to themselves.
func (ev *evaluator) atomize(it Item) Item {
	switch v := it.(type) {
	case NodeItem:
		return StrItem(ev.stringValue(v))
	case DocItem:
		return StrItem(ev.stringValue(NodeItem{ID: ev.store.Root()}))
	case AttrItem:
		return StrItem(v.Value)
	case *Constructed:
		var b strings.Builder
		constructedText(v, &b)
		return StrItem(b.String())
	default:
		return it
	}
}

func constructedText(c *Constructed, b *strings.Builder) {
	for _, ch := range c.Children {
		switch v := ch.(type) {
		case StrItem:
			b.WriteString(string(v))
		case *Constructed:
			constructedText(v, b)
		}
	}
}

// atomizeSeq atomizes every item of s.
func (ev *evaluator) atomizeSeq(s Seq) Seq {
	out := make(Seq, len(s))
	for i, it := range s {
		out[i] = ev.atomize(it)
	}
	return out
}

// parseNumber is the xs:double cast of an untyped string. The empty
// string is answered before ParseFloat, whose error value allocates.
func parseNumber(s string) float64 {
	s = strings.TrimSpace(s)
	if s == "" {
		return math.NaN()
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// itemString renders an atomic as a string.
func itemString(it Item) string {
	switch v := it.(type) {
	case StrItem:
		return string(v)
	case NumItem:
		return formatNumber(float64(v))
	case BoolItem:
		if v {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// FormatNumber renders a double exactly as the serializer renders
// numeric result items. Exported for mergers that recombine per-shard
// aggregates and must re-emit the combined value byte-identically to an
// unsharded run (the shard coordinator's sum merge).
func FormatNumber(f float64) string { return formatNumber(f) }

// formatNumber renders a double the way XQuery serializes integers without
// a decimal point.
func formatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// itemBool is the effective boolean value of a one-item sequence. Longer
// sequences never reach it: their effective boolean value is true (nodes
// are true, and multi-item atomic sequences, which have no EBV in the
// spec, count as true since the benchmark queries never rely on them).
func itemBool(it Item) bool {
	switch v := it.(type) {
	case BoolItem:
		return bool(v)
	case NumItem:
		return float64(v) != 0 && !math.IsNaN(float64(v))
	case StrItem:
		return len(v) > 0
	}
	return true
}

// atomKind is the type of an atom: the three atomic types of the subset.
type atomKind uint8

const (
	atomStr atomKind = iota
	atomNum
	atomBool
)

// atom is one atomized value held unboxed: the operand of the comparison
// kernel. A string atom is read straight from where the value lives (a
// stored node's string value, an attribute's value, a literal's Val), so
// atomizing allocates nothing except for constructed elements.
type atom struct {
	s      string
	f      float64 // atomNum; 1 or 0 for atomBool; atomStr once parsed
	kind   atomKind
	parsed bool
}

func strAtom(s string) atom { return atom{s: s} }

func numAtom(f float64) atom { return atom{f: f, kind: atomNum} }

// atomicAtom holds an atomic item (or any item atomize leaves as is) as an
// atom.
func atomicAtom(it Item) atom {
	switch v := it.(type) {
	case NumItem:
		return numAtom(float64(v))
	case BoolItem:
		a := atom{kind: atomBool}
		if v {
			a.f = 1
		}
		return a
	default:
		return strAtom(itemString(it))
	}
}

// num is the atom as a number: a string casts to xs:double (NaN when it
// does not parse) at most once, a boolean is 1 or 0.
func (a *atom) num() float64 {
	if a.kind == atomStr && !a.parsed {
		a.f, a.parsed = parseNumber(a.s), true
	}
	return a.f
}

// str is the atom as a string (itemString's rules).
func (a *atom) str() string {
	switch a.kind {
	case atomNum:
		return formatNumber(a.f)
	case atomBool:
		if a.f != 0 {
			return "true"
		}
		return "false"
	}
	return a.s
}

// compareAtoms is the comparison kernel: a general-comparison operator
// applied to two atoms under the untyped-data rules. If either side is
// numeric the comparison is numeric; two booleans compare for (in)equality
// as booleans; everything else compares as strings.
func compareAtoms(op compareOp, a, b *atom) bool {
	if a.kind == atomNum || b.kind == atomNum {
		return compareNumbers(op, a.num(), b.num())
	}
	if a.kind == atomBool && b.kind == atomBool {
		switch op {
		case cmpEq:
			return a.f == b.f
		case cmpNeq:
			return a.f != b.f
		}
	}
	x, y := a.str(), b.str()
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

// compareNumbers is the numeric general comparison (IEEE semantics: NaN
// satisfies only !=).
func compareNumbers(op compareOp, x, y float64) bool {
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

type compareOp int

const (
	cmpEq compareOp = iota
	cmpNeq
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

// cmpOpOf maps a value-comparison operator to the kernel's operator; ok is
// false for every other binary operator.
func cmpOpOf(op xquery.BinOp) (compareOp, bool) {
	switch op {
	case xquery.OpEq:
		return cmpEq, true
	case xquery.OpNeq:
		return cmpNeq, true
	case xquery.OpLt:
		return cmpLt, true
	case xquery.OpLe:
		return cmpLe, true
	case xquery.OpGt:
		return cmpGt, true
	case xquery.OpGe:
		return cmpGe, true
	}
	return 0, false
}

// stringValue returns the string value of a stored node, optionally making
// a defensive copy (System G's embedded-processor overhead, NaiveStrings).
func (ev *evaluator) stringValue(n NodeItem) string {
	s := ev.store.StringValue(n.ID)
	if ev.opts.NaiveStrings {
		s = string(append([]byte(nil), s...))
	}
	return s
}
