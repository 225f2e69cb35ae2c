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

// toNumber casts an atomic to a number; untyped strings parse as doubles,
// unparsable strings become NaN per XQuery's xs:double cast rules.
func toNumber(it Item) float64 {
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
	default:
		return math.NaN()
	}
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

// effectiveBool computes the effective boolean value of a sequence.
func (ev *evaluator) effectiveBool(s Seq) bool {
	if len(s) == 0 {
		return false
	}
	switch v := s[0].(type) {
	case NodeItem, DocItem, AttrItem, *Constructed:
		return true
	case BoolItem:
		if len(s) == 1 {
			return bool(v)
		}
	case NumItem:
		if len(s) == 1 {
			return float64(v) != 0 && !math.IsNaN(float64(v))
		}
	case StrItem:
		if len(s) == 1 {
			return len(v) > 0
		}
	}
	// Multi-item atomic sequences have no EBV in the spec; the benchmark
	// queries never rely on it, so any non-empty sequence counts as true.
	return true
}

// compareAtomics applies a general-comparison operator to two atomics
// following the untyped-data rules: if either side is numeric, compare
// numerically; otherwise compare as strings.
func compareAtomics(op compareOp, a, b Item) bool {
	_, aNum := a.(NumItem)
	_, bNum := b.(NumItem)
	if aNum || bNum {
		return compareNumbers(op, toNumber(a), toNumber(b))
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

// stringValue returns the string value of a stored node, optionally making
// a defensive copy (System G's embedded-processor overhead, NaiveStrings).
func (ev *evaluator) stringValue(n NodeItem) string {
	s := ev.store.StringValue(n.ID)
	if ev.opts.NaiveStrings {
		s = string(append([]byte(nil), s...))
	}
	return s
}
