package relational

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkIndexAgainstOracle builds the index of column 0 and compares every
// lookup with a map built here, in the test: each stored key, and probes
// below, inside (a gap) and above the key range. Probes also reach past
// int32, where a key and its value modulo 2^32 must not be confused.
func checkIndexAgainstOracle(t *testing.T, label string, typ Type, keys []int32) *Index {
	t.Helper()
	tab := NewTable(label, Schema{{"k", typ}})
	oracle := map[int64][]int32{}
	for i, k := range keys {
		switch typ {
		case String:
			tab.Append(StringVal(fmt.Sprint("s", k)))
		case Node:
			tab.Append(NodeVal(int64(k)))
		default:
			tab.Append(IntVal(int64(k)))
		}
		oracle[int64(k)] = append(oracle[int64(k)], int32(i))
	}
	idx := tab.CreateIndex(0)
	lookup := func(k int64) []int32 {
		if typ == String {
			return idx.LookupString(fmt.Sprint("s", k))
		}
		return idx.LookupInt(k)
	}
	probes := []int64{math.MinInt64, math.MaxInt64, 0, -1}
	for k := range oracle {
		probes = append(probes, k, k-1, k+1, k+1<<32, k-1<<32)
	}
	for _, k := range probes {
		got := lookup(k)
		if !slices.Equal(got, oracle[k]) {
			t.Fatalf("%s: lookup(%d) = %v, want %v", label, k, got, oracle[k])
		}
		if len(got) == 0 {
			continue
		}
		// An append must copy, not write into the next key's rows.
		snapshot := slices.Clone(idx.rows)
		_ = append(got, -7)
		if !slices.Equal(idx.rows, snapshot) {
			t.Fatalf("%s: append on lookup(%d) overwrote the index", label, k)
		}
	}
	return idx
}

// TestIndexProperty is the flat index's correctness argument: random
// columns of every indexable type over dense and sparse int32 key domains
// agree with a map-based oracle, and the directory form follows the data.
// Probes outside int32, the MinInt64/MaxInt64 ones included, must miss.
func TestIndexProperty(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		n := r.Intn(200)
		typ := []Type{Int, Node, String}[r.Intn(3)]
		// A domain about the size of the column is dense with duplicates; a
		// domain a thousand times larger leaves gaps everywhere. Both start
		// below zero: parent = -1 of the root, tag = -1 of text rows.
		domain := int64(n/2 + 1)
		if i%2 == 1 {
			domain = int64(n+1) * 1000
		}
		base := r.Int63n(100) - 50
		keys := make([]int32, n)
		for j := range keys {
			keys[j] = int32(base + r.Int63n(domain))
		}
		checkIndexAgainstOracle(t, fmt.Sprintf("random %d (%s, n=%d, domain=%d)", i, typ, n, domain), typ, keys)
	}

	for _, tc := range []struct {
		label string
		keys  []int32
		dense bool
	}{
		{"empty", nil, true},
		{"single row", []int32{42}, true},
		{"single negative", []int32{-1}, true},
		{"all equal", []int32{7, 7, 7, 7}, true},
		{"node ids", []int32{0, 1, 2, 3, 4, 5, 6, 7}, true},
		{"parents with root", []int32{-1, 0, 0, 1, 1, 4, 4, 0}, true},
		{"interleaved attribute ids", []int32{0, 100, 1, 101, 102, 2}, false},
		{"two far keys", []int32{-1000000, 1000000, -1000000}, false},
		{"extremes", []int32{math.MinInt32, math.MaxInt32, 0, math.MaxInt32}, false},
		{"dense at the top", []int32{math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32 - 2}, true},
		{"dense at the bottom", []int32{math.MinInt32, math.MinInt32 + 2, math.MinInt32 + 1}, true},
		{"at the bound", []int32{0, denseSpanFactor*3 - 1, 5}, true},
		{"past the bound", []int32{0, denseSpanFactor * 3, 5}, false},
	} {
		for _, typ := range []Type{Int, Node} {
			idx := checkIndexAgainstOracle(t, tc.label, typ, tc.keys)
			if (idx.keys == nil) != tc.dense {
				t.Errorf("%s: dense directory = %v, want %v", tc.label, idx.keys == nil, tc.dense)
			}
		}
	}
	// String columns index dictionary codes: dense for a private
	// dictionary, sparse when the shared one hands this table scattered
	// codes.
	dict := NewDict()
	shared := NewTableShared("shared", Schema{{"v", String}}, dict)
	for i := 0; i < 1000; i++ {
		v := fmt.Sprint("other", i)
		if i%100 == 0 {
			v = fmt.Sprint("mine", i%300)
			shared.Append(StringVal(v))
		}
		dict.Intern(v)
	}
	idx := shared.CreateIndex(0)
	if idx.keys == nil {
		t.Error("scattered shared-dictionary codes got a dense directory")
	}
	if got := idx.LookupString("mine0"); !slices.Equal(got, []int32{0, 3, 6, 9}) {
		t.Errorf("LookupString(mine0) = %v", got)
	}
	if got := idx.LookupString("other5"); len(got) != 0 {
		t.Errorf("LookupString of a value stored elsewhere = %v", got)
	}
}

func TestIndexOnFloatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic indexing a float column")
		}
	}()
	personTable().CreateIndex(2)
}

// TestIndexLookupZeroAlloc pins that a probe is a view of the index: hit
// or miss, dense or sorted, by int or by string.
func TestIndexLookupZeroAlloc(t *testing.T) {
	tab := NewTable("t", Schema{{"dense", Int}, {"sparse", Int}, {"s", String}})
	for i := int64(0); i < 1000; i++ {
		tab.Append(IntVal(i/2), IntVal(i*1000), StringVal(fmt.Sprint("v", i%10)))
	}
	dense, sparse, str := tab.CreateIndex(0), tab.CreateIndex(1), tab.CreateIndex(2)
	if dense.keys != nil || sparse.keys == nil {
		t.Fatal("directory forms not as intended")
	}
	var sink []int32
	allocs := testing.AllocsPerRun(100, func() {
		sink = dense.LookupInt(17)
		sink = dense.LookupInt(-5)
		sink = sparse.LookupInt(17000)
		sink = sparse.LookupInt(17001)
		sink = str.LookupString("v3")
		sink = str.LookupString("absent")
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("lookups allocate %v times per run", allocs)
	}
}
