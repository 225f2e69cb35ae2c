// Package relational is a small in-memory relational engine: typed tables,
// flat equality indexes, and iterator-style operators (scan, select,
// project, hash join, sort, aggregate).
//
// It is the substrate under the paper's "mass storage" Systems A–C, which
// are "based on relational technology": the XML-to-relational mappings in
// package mapping store the document in tables of this engine and answer
// navigation requests with index lookups and scans, so the cost structure
// of the relational architectures (per-step joins, metadata access, wide
// versus fragmented tables) emerges from real data structures rather than
// being modeled.
//
// Storage is column-major: each column lives in its own typed vector
// (int32 for Int/Node, float64 for Float, int32 dictionary codes for
// String), so a value predicate streams one contiguous array instead of
// striding over boxed row cells, and string equality is an integer code
// comparison (see Dict). Int and Node cells are node ids, tag symbols,
// kinds, ordinals and flags, all of which fit in 32 bits; the API speaks
// int64 and Append rejects a value outside int32. The Row/Value API
// materializes on demand and is the cold path; hot paths read columns
// through the typed accessors.
package relational

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"
)

// Type enumerates column types.
type Type int

// Column types. Node columns hold node identifiers; they behave like Int
// but document intent in schemas.
const (
	Int Type = iota
	Float
	String
	Node
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	case Node:
		return "NODE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is one typed cell. Exactly one of the payload fields is meaningful,
// per T.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// IntVal returns an Int value.
func IntVal(v int64) Value { return Value{T: Int, I: v} }

// NodeVal returns a Node value.
func NodeVal(v int64) Value { return Value{T: Node, I: v} }

// FloatVal returns a Float value.
func FloatVal(v float64) Value { return Value{T: Float, F: v} }

// StringVal returns a String value.
func StringVal(v string) Value { return Value{T: String, S: v} }

// coded is the Type of a CodeVal, accepted by Append for String columns.
const coded Type = -1

// CodeVal returns a String cell given by its code in the table's
// dictionary, for a loader whose values were interned before the table was
// built: Append stores the code as it is and hashes nothing.
func CodeVal(c int32) Value { return Value{T: coded, I: int64(c)} }

// Equal reports deep equality of two values, including their type.
func (v Value) Equal(o Value) bool {
	if v.T != o.T {
		return false
	}
	switch v.T {
	case Float:
		return v.F == o.F
	case String:
		return v.S == o.S
	default:
		return v.I == o.I
	}
}

// Less orders values of the same type; Strings compare lexicographically.
func (v Value) Less(o Value) bool {
	switch v.T {
	case Float:
		return v.F < o.F
	case String:
		return v.S < o.S
	default:
		return v.I < o.I
	}
}

// Column declares a table column.
type Column struct {
	Name string
	T    Type
}

// Schema is an ordered list of columns.
type Schema []Column

// Col returns the position of the named column, or -1.
func (s Schema) Col(name string) int {
	for i := range s {
		if s[i].Name == name {
			return i
		}
	}
	return -1
}

// Row is one tuple. Rows returned by iterators may be reused between calls;
// callers that retain rows must copy them.
type Row []Value

// column is one typed vector. Exactly one payload slice is in use, per the
// schema column's type: floats for Float, cells for every other type (the
// values of Int and Node, the dictionary codes of String).
type column struct {
	cells  []int32
	floats []float64
}

// Table is a column-oriented relation with optional equality indexes
// (Index), built once over the finished columns. String columns store
// dictionary codes; the dictionary may be private to the table or shared
// across all tables of one catalog (NewTableShared), which is what lets
// attribute values in different fragments compare by code.
//
// A table is appended, then frozen by its first CreateIndex. The freeze
// seals every column at its exact length, so a loaded table keeps no
// append slack; a loader that knows the row count up front calls Reserve
// and the seal has nothing to copy.
type Table struct {
	Name   string
	Schema Schema

	nrows   int
	cols    []column
	dict    *Dict
	indexes map[int]*Index // by column position; nil until CreateIndex
}

// NewTable creates an empty table with its own private dictionary.
func NewTable(name string, schema Schema) *Table {
	return NewTableShared(name, schema, NewDict())
}

// NewTableShared creates an empty table whose String columns intern into
// the given shared dictionary, so codes compare across every table built
// over the same dictionary (one dictionary per catalog).
func NewTableShared(name string, schema Schema, dict *Dict) *Table {
	return &Table{
		Name:   name,
		Schema: schema,
		cols:   make([]column, len(schema)),
		dict:   dict,
	}
}

// Dict returns the table's string dictionary.
func (t *Table) Dict() *Dict { return t.dict }

// Len returns the row count.
func (t *Table) Len() int { return t.nrows }

// Reserve sizes every column to hold exactly rows rows, for a loader that
// knows its row count before the first Append. Appending past it still
// works; the freeze then copies the column to its exact length.
func (t *Table) Reserve(rows int) {
	for c := range t.cols {
		col := &t.cols[c]
		if t.Schema[c].T == Float {
			col.floats = resize(col.floats, rows)
		} else {
			col.cells = resize(col.cells, rows)
		}
	}
}

// resize returns v with capacity exactly n (never below its length).
func resize[E any](v []E, n int) []E {
	if n < len(v) || n == cap(v) {
		return v
	}
	out := make([]E, len(v), n)
	copy(out, v)
	return out
}

// seal cuts every column's capacity to its length: the freeze point of the
// append-then-index life cycle, after which no column grows again.
func (t *Table) seal() {
	for c := range t.cols {
		col := &t.cols[c]
		col.cells = resize(col.cells, len(col.cells))
		col.floats = resize(col.floats, len(col.floats))
	}
}

// Append adds a row. It panics if the row width does not match the schema,
// if an Int or Node value does not fit in int32, if a String value is
// neither a code of the table's dictionary nor internable into it (Seal),
// or if an index has been built (indexes are immutable and would go
// stale); all are programming errors, not data errors. A rejected row
// leaves the table unchanged.
func (t *Table) Append(row ...Value) int {
	if len(row) != len(t.Schema) {
		panic(fmt.Sprintf("relational: row width %d != schema width %d in %s", len(row), len(t.Schema), t.Name))
	}
	if t.indexes != nil {
		panic(fmt.Sprintf("relational: Append to %s after an index was built", t.Name))
	}
	for c := range row {
		tt := t.Schema[c].T
		if (tt == Int || tt == Node) && row[c].I != int64(int32(row[c].I)) {
			panic(fmt.Sprintf("relational: value %d of %s.%s outside int32", row[c].I, t.Name, t.Schema[c].Name))
		}
		if tt == String && row[c].T == coded && (row[c].I < 0 || row[c].I >= int64(t.dict.Len())) {
			panic(fmt.Sprintf("relational: code %d of %s.%s not in its dictionary", row[c].I, t.Name, t.Schema[c].Name))
		}
		if tt == String && row[c].T != coded && t.dict.sealed {
			t.dict.Intern(row[c].S) // panics, naming the value, if it is unseen
		}
	}
	id := t.nrows
	for c := range row {
		switch t.Schema[c].T {
		case Float:
			t.cols[c].floats = append(t.cols[c].floats, row[c].F)
		case String:
			code := int32(row[c].I)
			if row[c].T != coded {
				code = t.dict.Intern(row[c].S)
			}
			t.cols[c].cells = append(t.cols[c].cells, code)
		default:
			t.cols[c].cells = append(t.cols[c].cells, int32(row[c].I))
		}
	}
	t.nrows++
	return id
}

// Int returns the cell at row i of an Int or Node column.
func (t *Table) Int(i, c int) int64 { return int64(t.cols[c].cells[i]) }

// Float returns the float64 cell at row i of a Float column.
func (t *Table) Float(i, c int) float64 { return t.cols[c].floats[i] }

// Code returns the dictionary code at row i of a String column — the
// representation equality predicates compare without decoding.
func (t *Table) Code(i, c int) int32 { return t.cols[c].cells[i] }

// Str decodes the string cell at row i of a String column.
func (t *Table) Str(i, c int) string { return t.dict.Name(t.cols[c].cells[i]) }

// IntCol returns the contiguous int32 vector of an Int or Node column.
func (t *Table) IntCol(c int) []int32 { return t.cols[c].cells }

// FloatCol returns the contiguous float64 vector of a Float column.
func (t *Table) FloatCol(c int) []float64 { return t.cols[c].floats }

// CodeCol returns the contiguous dictionary-code vector of a String column.
func (t *Table) CodeCol(c int) []int32 { return t.cols[c].cells }

// Value materializes the cell at row i, column c.
func (t *Table) Value(i, c int) Value {
	switch tt := t.Schema[c].T; tt {
	case Float:
		return Value{T: Float, F: t.cols[c].floats[i]}
	case String:
		return Value{T: String, S: t.dict.Name(t.cols[c].cells[i])}
	default:
		return Value{T: tt, I: int64(t.cols[c].cells[i])}
	}
}

// Row materializes row i into a fresh slice. This is the cold-path
// compatibility API; iterators reuse a scratch row via ReadRow and hot
// paths read typed columns directly.
func (t *Table) Row(i int) Row {
	return t.ReadRow(i, make(Row, len(t.Schema)))
}

// ReadRow materializes row i into buf (which must have schema width) and
// returns it.
func (t *Table) ReadRow(i int, buf Row) Row {
	for c := range t.Schema {
		buf[c] = t.Value(i, c)
	}
	return buf
}

// SizeBytes is the resident footprint of the table including its indexes:
// the capacity of every column vector (4 bytes per Int, Node and String
// cell, 8 per Float cell), the table's header, name and schema, and the
// index map. The shared dictionary's payload is NOT counted here — it is
// counted once per store (Dict.SizeBytes), which is the point of
// dictionary encoding in the paper's "database size" column.
func (t *Table) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*t)) + int64(len(t.Name)) +
		int64(cap(t.Schema))*int64(unsafe.Sizeof(Column{})) +
		int64(cap(t.cols))*int64(unsafe.Sizeof(column{}))
	for c := range t.cols {
		n += int64(cap(t.cols[c].cells))*4 + int64(cap(t.cols[c].floats))*8
	}
	if t.indexes != nil {
		n += MapBytes(t.indexes)
	}
	for _, idx := range t.indexes {
		n += idx.sizeBytes()
	}
	return n
}

// String renders the table for debugging.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", t.Name)
	for i, c := range t.Schema {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.T)
	}
	fmt.Fprintf(&b, ") [%d rows]", t.Len())
	return b.String()
}

// SortRowsBy sorts row ids of t by the given columns ascending and returns
// them; the table itself is unchanged.
func (t *Table) SortRowsBy(cols ...int) []int32 {
	ids := make([]int32, t.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	less := func(a, b int32, c int) int {
		switch t.Schema[c].T {
		case Float:
			av, bv := t.Float(int(a), c), t.Float(int(b), c)
			switch {
			case av < bv:
				return -1
			case bv < av:
				return 1
			}
		case String:
			av, bv := t.Str(int(a), c), t.Str(int(b), c)
			switch {
			case av < bv:
				return -1
			case bv < av:
				return 1
			}
		default:
			av, bv := t.Int(int(a), c), t.Int(int(b), c)
			switch {
			case av < bv:
				return -1
			case bv < av:
				return 1
			}
		}
		return 0
	}
	sort.SliceStable(ids, func(a, b int) bool {
		for _, c := range cols {
			switch less(ids[a], ids[b], c) {
			case -1:
				return true
			case 1:
				return false
			}
		}
		return false
	})
	return ids
}
