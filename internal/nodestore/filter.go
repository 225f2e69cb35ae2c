package nodestore

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/tree"
)

// CmpOp enumerates the comparison operators a store can evaluate inside a
// scan. The set mirrors the engine's general-comparison operators.
type CmpOp int

// Comparison operators of pushed-down predicates.
const (
	CmpEq CmpOp = iota
	CmpNeq
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

// String returns the surface syntax of the operator.
func (op CmpOp) String() string {
	if int(op) < len(cmpNames) {
		return cmpNames[op]
	}
	return "?"
}

// ValueFilter is one predicate the planner pushes below the engine into a
// store scan: an attribute value or a text-child value — on the scanned
// node itself or existentially on its tag-named children — compared
// against a literal. It is the storage-layer half of the planner's
// pushdown contract; see Match for the exact comparison semantics a store
// must apply. The recognized predicate shapes are @a, name/text() and
// name/@a against a string or number literal.
type ValueFilter struct {
	// Child narrows the value source to the element children with this
	// tag (existential: any matching child satisfies the filter); ""
	// reads the scanned node itself.
	Child string
	// Attr is the attribute the filter reads; "" means the filter matches
	// against text children instead (existential: any matching text child
	// satisfies the filter).
	Attr string
	// Op compares the stored value against the literal.
	Op CmpOp
	// Value is the string literal. When Numeric is set the comparison is
	// numeric against Num instead, with XQuery's untyped-cast rules.
	Value   string
	Num     float64
	Numeric bool
}

// String renders the filter in predicate syntax for plan explanation.
func (f ValueFilter) String() string {
	lhs := "text()"
	if f.Attr != "" {
		lhs = "@" + f.Attr
	}
	if f.Child != "" {
		lhs = f.Child + "/" + lhs
	}
	if f.Numeric {
		return fmt.Sprintf("%s %s %s", lhs, f.Op, strconv.FormatFloat(f.Num, 'g', -1, 64))
	}
	return fmt.Sprintf("%s %s %q", lhs, f.Op, f.Value)
}

// Match reports whether one raw stored value satisfies the filter,
// reproducing the engine's untyped general-comparison semantics exactly:
// numeric comparisons cast the stored string to xs:double — unparsable
// values become NaN, which fails every comparison except "!=" — and string
// comparisons are codepoint-wise. A store that cannot honor these exact
// semantics for a filter must not accept it.
func (f ValueFilter) Match(v string) bool {
	if f.Numeric {
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			x = math.NaN()
		}
		switch f.Op {
		case CmpEq:
			return x == f.Num
		case CmpNeq:
			return x != f.Num
		case CmpLt:
			return x < f.Num
		case CmpLe:
			return x <= f.Num
		case CmpGt:
			return x > f.Num
		case CmpGe:
			return x >= f.Num
		}
		return false
	}
	switch f.Op {
	case CmpEq:
		return v == f.Value
	case CmpNeq:
		return v != f.Value
	case CmpLt:
		return v < f.Value
	case CmpLe:
		return v <= f.Value
	case CmpGt:
		return v > f.Value
	case CmpGe:
		return v >= f.Value
	}
	return false
}

// MatchNode evaluates one filter against a stored node through the generic
// Store navigation: the reference semantics for the filtered cursors
// (and their tests). Attribute filters read the named
// attribute — absent attributes never match; text filters match when any
// text child satisfies the comparison; a Child component applies either
// source existentially over the tag-named element children. All of it is
// the existential semantics of the engine's general comparison.
func MatchNode(s Store, n tree.NodeID, f ValueFilter) bool {
	if f.Child == "" {
		return matchValueAt(s, n, f)
	}
	cur := s.ChildrenByTagCursor(n, f.Child)
	for {
		id, ok := cur.Next()
		if !ok {
			return false
		}
		if matchValueAt(s, id, f) {
			return true
		}
	}
}

// matchValueAt applies the filter's value source (attribute or text
// children) at one node.
func matchValueAt(s Store, n tree.NodeID, f ValueFilter) bool {
	if f.Attr != "" {
		v, ok := s.Attr(n, f.Attr)
		return ok && f.Match(v)
	}
	cur := s.ChildrenCursor(n)
	for {
		id, ok := cur.Next()
		if !ok {
			return false
		}
		if s.Kind(id) == tree.Text && f.Match(s.Text(id)) {
			return true
		}
	}
}

// MatchAll reports whether n satisfies every filter.
func MatchAll(s Store, n tree.NodeID, fs []ValueFilter) bool {
	for _, f := range fs {
		if !MatchNode(s, n, f) {
			return false
		}
	}
	return true
}
