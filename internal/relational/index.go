package relational

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Index is an immutable equality index from column value to row ids in
// compressed-sparse-row form: a key directory, off and one contiguous rows
// array. The rows of directory entry k are rows[off[k]:off[k+1]], in
// ascending row order. String columns are indexed by dictionary code, so
// the index stores no string payloads.
//
// The directory is direct-address when the keys are dense (keys == nil,
// entry k is key base+k) and a sorted array of the distinct keys with a
// binary search otherwise; build decides from the column it is given.
// Nothing is written after build, so any number of goroutines may probe.
//
// Keys are int32 like the columns they index, so a probe outside int32
// matches no row.
type Index struct {
	dict *Dict
	base int32
	keys []int32
	off  []int32
	rows []int32
}

// denseSpanFactor bounds the direct-address directory: it is chosen when
// the key span is at most this multiple of the distinct-key count. A dense
// slot costs 4 B and a sorted entry 8 B, so up to 2 the dense directory is
// also the smaller one; 4 trades at most twice the directory for a probe
// that is one load instead of a search.
const denseSpanFactor = 4

// CreateIndex builds (or returns the existing) index over the column. The
// table must be complete: the first call seals every column at its exact
// length, and Append panics from here on.
func (t *Table) CreateIndex(col int) *Index {
	if idx, ok := t.indexes[col]; ok {
		return idx
	}
	if t.Schema[col].T == Float {
		panic("relational: index on float column")
	}
	if t.indexes == nil {
		t.seal()
		t.indexes = make(map[int]*Index)
	}
	idx := buildIndex(t.cols[col].cells)
	if t.Schema[col].T == String {
		idx.dict = t.dict
	}
	t.indexes[col] = idx
	return idx
}

// buildIndex makes the index of one finished column: a counting sort into
// a direct-address directory when the keys are dense, else a sort of the
// row ids by key with the distinct keys collected from the sorted order.
func buildIndex(col []int32) *Index {
	n := len(col)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("relational: %d rows exceed int32 row ids", n))
	}
	x := &Index{rows: make([]int32, n)}
	if n == 0 {
		x.off = []int32{0}
		return x
	}
	lo, hi := col[0], col[0]
	for _, v := range col {
		lo, hi = min(lo, v), max(hi, v)
	}
	// The span of int32 keys fits in int64; distinct <= n, so a span beyond
	// the bound for n keys cannot be dense.
	if span := int64(hi) - int64(lo); span < int64(denseSpanFactor*n) {
		span++
		// off[k+2] counts key k, the running sum turns off[k+1] into the
		// start of k, and the fill advances it to the start of k+1.
		off := make([]int32, span+2)
		distinct := int64(0)
		for _, v := range col {
			k := int64(v) - int64(lo) + 2
			if off[k] == 0 {
				distinct++
			}
			off[k]++
		}
		if span <= denseSpanFactor*distinct {
			for k := 2; k < len(off); k++ {
				off[k] += off[k-1]
			}
			for i, v := range col {
				k := int64(v) - int64(lo) + 1
				x.rows[off[k]] = int32(i)
				off[k]++
			}
			x.base, x.off = lo, off[:span+1]
			return x
		}
	}
	for i := range x.rows {
		x.rows[i] = int32(i)
	}
	slices.SortFunc(x.rows, func(a, b int32) int {
		if c := cmp.Compare(col[a], col[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// A group starts wherever the key changes; count the groups first so
	// that keys and off are allocated at their final size.
	starts := func(i int) bool { return i == 0 || col[x.rows[i]] != col[x.rows[i-1]] }
	distinct := 0
	for i := range x.rows {
		if starts(i) {
			distinct++
		}
	}
	x.keys, x.off = make([]int32, 0, distinct), make([]int32, 0, distinct+1)
	for i, r := range x.rows {
		if starts(i) {
			x.keys = append(x.keys, col[r])
			x.off = append(x.off, int32(i))
		}
	}
	x.off = append(x.off, int32(n))
	return x
}

// LookupInt returns the row ids whose indexed column equals v, ascending.
// The result is a read-only view of the index, capped at its own length so
// an append cannot reach a neighbour's rows.
func (x *Index) LookupInt(v int64) []int32 {
	if v != int64(int32(v)) {
		return nil
	}
	var k int64
	if x.keys == nil {
		if k = v - int64(x.base); k < 0 || k >= int64(len(x.off)-1) {
			return nil
		}
	} else if i, ok := slices.BinarySearch(x.keys, int32(v)); ok {
		k = int64(i)
	} else {
		return nil
	}
	lo, hi := x.off[k], x.off[k+1]
	return x.rows[lo:hi:hi]
}

// LookupString returns the row ids whose indexed column equals v. A value
// absent from the dictionary equals no stored cell, so the lookup
// short-circuits on the dictionary miss.
func (x *Index) LookupString(v string) []int32 {
	c, ok := x.dict.Code(v)
	if !ok {
		return nil
	}
	return x.LookupInt(int64(c))
}

// sizeBytes is the resident size of the index: its header and its three
// arrays.
func (x *Index) sizeBytes() int64 {
	return int64(unsafe.Sizeof(*x)) + int64(cap(x.keys)+cap(x.off)+cap(x.rows))*4
}
