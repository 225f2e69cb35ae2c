package relational

import (
	"fmt"
	"hash/maphash"
	"math"
	"unsafe"
)

// Dict is an order-of-insertion string dictionary: every distinct string
// interned gets a dense int32 code, and code equality is equivalent to
// string equality *within one dictionary*. Columnar tables store String
// cells as codes, so equality predicates (Q1's @id probe, Q4's personrefs,
// the pushdown ValueFilters) compare two ints against a contiguous code
// column and decode only the survivors.
//
// The dictionary contract, which everything above this layer relies on:
//
//   - One dictionary per catalog, private per shard. A service catalog
//     builds one dictionary over its parsed document (mapping.NewValues)
//     and Systems A, B and C all code their String cells against it; a
//     standalone load builds its own. Codes are dense, stable and private
//     to one dictionary: two dictionaries (two shards of a split
//     document, each loaded as its own catalog) intern different values
//     in different orders, so the SAME string can and will carry
//     DIFFERENT codes in different dictionaries. Any comparison that
//     crosses a dictionary boundary — the scatter-gather merge over shard
//     territories, serialization, ordered (<, <=) or numeric predicates —
//     must compare DECODED strings, never codes.
//   - Interning happens at load time only, and Seal ends it: interning a
//     value the dictionary does not hold after the seal panics. A sealed
//     dictionary is read-only, which is what makes concurrent readers
//     (partition workers, the service executor's sessions, the stores of
//     one catalog) safe without locks.
//
// The layout is flat and pointer-free, so the collector never scans it:
// each value is an (offset, length) span into the document's text heap
// (NewDictOver, InternSpan) or into one arena of bytes the dictionary
// owns, and codes are found through one open-addressing table of int32
// slots kept at most half full.
type Dict struct {
	heap   string  // the text heap that heap spans address; its owner counts it
	arena  []byte  // owned payloads, addressed at offsets past the heap
	spans  []span  // code -> payload
	slots  []int32 // code+1 per slot, 0 for empty; length a power of two
	seed   maphash.Seed
	sealed bool
}

// span locates one value: bytes [off, off+n) of the heap when off is
// inside it, else of the arena at off-len(heap).
type span struct{ off, n uint32 }

// NewDict returns an empty dictionary that owns every value it interns.
func NewDict() *Dict { return NewDictOver("") }

// NewDictOver returns an empty dictionary whose InternSpan values alias
// heap instead of copying it.
func NewDictOver(heap string) *Dict {
	return &Dict{heap: heap, seed: maphash.MakeSeed()}
}

// name decodes one span without allocating.
func (d *Dict) name(sp span) string {
	if sp.n == 0 {
		return ""
	}
	if o := int(sp.off); o < len(d.heap) {
		return d.heap[o : o+int(sp.n)]
	}
	return unsafe.String(&d.arena[int(sp.off)-len(d.heap)], int(sp.n))
}

// find returns the code of s by probing the slot table, which must not be
// empty.
func (d *Dict) find(s string) (int32, bool) {
	mask := len(d.slots) - 1
	for i := int(maphash.String(d.seed, s)) & mask; ; i = (i + 1) & mask {
		c := d.slots[i]
		if c == 0 {
			return 0, false
		}
		if d.name(d.spans[c-1]) == s {
			return c - 1, true
		}
	}
}

// Intern returns the code of s, assigning the next dense code on first
// sight and copying s into the arena. Load-time only; not safe for
// concurrent use. After Seal it panics on a value it does not hold.
func (d *Dict) Intern(s string) int32 { return d.intern(s, -1) }

// InternSpan is Intern for heap[lo:hi] of the heap the dictionary was made
// over: a first-sight value costs a span and a slot, never a copy, and
// SizeBytes leaves its bytes to the heap's accounting.
func (d *Dict) InternSpan(lo, hi int) int32 { return d.intern(d.heap[lo:hi], lo) }

// intern is Intern for s found at heapOff in the heap, or copied into the
// arena when heapOff is negative.
func (d *Dict) intern(s string, heapOff int) int32 {
	if len(d.slots) > 0 {
		if c, ok := d.find(s); ok {
			return c
		}
	}
	if d.sealed {
		panic(fmt.Sprintf("relational: Intern of %q into a sealed dictionary", s))
	}
	sp := span{uint32(heapOff), uint32(len(s))}
	if heapOff < 0 {
		end := len(d.heap) + len(d.arena) + len(s)
		if end > math.MaxUint32 {
			panic(fmt.Sprintf("relational: dictionary payload of %d bytes exceeds uint32 offsets", end))
		}
		sp.off = uint32(len(d.heap) + len(d.arena))
		d.arena = append(d.arena, s...)
	}
	if 2*(len(d.spans)+1) > len(d.slots) {
		d.rehash(max(8, 2*len(d.slots)))
	}
	c := int32(len(d.spans))
	d.spans = append(d.spans, sp)
	d.slots[d.emptySlot(s)] = c + 1
	return c
}

// emptySlot returns the first empty slot on the probe sequence of s.
func (d *Dict) emptySlot(s string) int {
	mask := len(d.slots) - 1
	i := int(maphash.String(d.seed, s)) & mask
	for d.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// rehash rebuilds the slot table at size n, a power of two.
func (d *Dict) rehash(n int) {
	d.slots = make([]int32, n)
	for c, sp := range d.spans {
		d.slots[d.emptySlot(d.name(sp))] = int32(c) + 1
	}
}

// Seal ends interning: the span and arena vectors are cut to their exact
// length, and from now on Intern of an unseen value panics. The slot table
// already has the smallest size that keeps it at most half full.
func (d *Dict) Seal() {
	d.spans = resize(d.spans, len(d.spans))
	d.arena = resize(d.arena, len(d.arena))
	d.sealed = true
}

// Code returns the code of s and whether s has ever been interned. A miss
// means s equals no stored value — the short-circuit equality predicates
// use before touching any row.
func (d *Dict) Code(s string) (int32, bool) {
	if len(d.slots) == 0 {
		return 0, false
	}
	return d.find(s)
}

// Name decodes a code without allocating. Codes come only from this
// dictionary's Intern/Code, so the bounds check is the only validation
// needed.
func (d *Dict) Name(c int32) string { return d.name(d.spans[c]) }

// AppendName appends the decoded value of c to dst and returns the
// extended buffer: the serializer's code → interned-bytes emission path,
// which renders a dictionary-coded value without materializing a string.
func (d *Dict) AppendName(dst []byte, c int32) []byte {
	return append(dst, d.Name(c)...)
}

// Len returns the number of distinct values — the dictionary cardinality
// the planner's catalog reports.
func (d *Dict) Len() int { return len(d.spans) }

// SizeBytes is the dictionary's exact resident footprint: its header, the
// span, slot and arena vectors at their capacity. Heap spans add no bytes:
// the text heap is counted by the store that keeps it.
func (d *Dict) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*d)) + int64(cap(d.spans))*int64(unsafe.Sizeof(span{})) +
		int64(cap(d.slots))*4 + int64(cap(d.arena))
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
