package relational

import "unsafe"

// Dict is an order-of-insertion string dictionary: every distinct string
// interned gets a dense int32 code, and code equality is equivalent to
// string equality *within one dictionary*. Columnar tables store String
// cells as codes, so equality predicates (Q1's @id probe, Q4's personrefs,
// the pushdown ValueFilters) compare two ints against a contiguous code
// column and decode only the survivors.
//
// The dictionary contract, which everything above this layer relies on:
//
//   - Codes are dense, stable and private to one dictionary. Two stores
//     (two shards of a split document, two independently loaded systems)
//     intern their values in different orders, so the SAME string can and
//     will carry DIFFERENT codes in different dictionaries. Any comparison
//     that crosses a dictionary boundary — the scatter-gather merge over
//     shard territories, serialization, ordered (<, <=) or numeric
//     predicates — must compare DECODED strings, never codes.
//   - Interning happens at load time only. After a store is built the
//     dictionary is read-only, which is what makes concurrent readers
//     (partition workers, the service executor's sessions) safe without
//     locks.
type Dict struct {
	codes   map[string]int32
	names   []string
	aliased int64 // payload bytes of names owned elsewhere (InternAliased)
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{codes: make(map[string]int32)}
}

// Intern returns the code of s, assigning the next dense code on first
// sight. Load-time only; not safe for concurrent use.
func (d *Dict) Intern(s string) int32 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	c := int32(len(d.names))
	d.codes[s] = c
	d.names = append(d.names, s)
	return c
}

// InternAliased is Intern for a string that is a slice of memory the store
// retains anyway (its document-order text heap). The dictionary keeps the
// slice it is handed, never a copy, so a first-sight value costs no payload
// of its own and SizeBytes leaves those bytes to the heap's accounting.
func (d *Dict) InternAliased(s string) int32 {
	before := len(d.names)
	c := d.Intern(s)
	if len(d.names) > before {
		d.aliased += int64(len(s))
	}
	return c
}

// Code returns the code of s and whether s has ever been interned. A miss
// means s equals no stored value — the short-circuit equality predicates
// use before touching any row.
func (d *Dict) Code(s string) (int32, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// Name decodes a code. Codes come only from this dictionary's Intern/Code,
// so the bounds check is the only validation needed.
func (d *Dict) Name(c int32) string { return d.names[c] }

// AppendName appends the decoded value of c to dst and returns the
// extended buffer: the serializer's code → interned-bytes emission path,
// which renders a dictionary-coded value without materializing a string.
func (d *Dict) AppendName(dst []byte, c int32) []byte {
	return append(dst, d.names[c]...)
}

// Len returns the number of distinct values — the dictionary cardinality
// the planner's catalog reports.
func (d *Dict) Len() int { return len(d.names) }

// SizeBytes is the dictionary's resident footprint: the names vector at
// its capacity, the code map at its real per-slot cost (MapBytes), and
// every string payload except those that alias memory counted elsewhere.
func (d *Dict) SizeBytes() int64 {
	n := int64(cap(d.names))*int64(unsafe.Sizeof("")) + MapBytes(d.codes)
	for _, s := range d.names {
		n += int64(len(s))
	}
	return n - d.aliased
}

// MapBytes estimates the resident size of a Go map, keys and values
// included but not what they point to: slots come in groups of eight
// behind one control byte each, a table grows by doubling once it is
// seven-eighths full, and the header is a few words. An empty map has only
// its header.
func MapBytes[K comparable, V any](m map[K]V) int64 {
	const header = 48
	if len(m) == 0 {
		return header
	}
	var slot struct {
		k K
		v V
	}
	slots := 8
	for slots*7/8 < len(m) {
		slots *= 2
	}
	return header + int64(slots)*int64(unsafe.Sizeof(slot)+1)
}
