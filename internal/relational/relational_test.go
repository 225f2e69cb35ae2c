package relational

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func personTable() *Table {
	t := NewTable("person", Schema{{"id", Int}, {"name", String}, {"income", Float}})
	t.Append(IntVal(0), StringVal("Ada"), FloatVal(50000))
	t.Append(IntVal(1), StringVal("Bob"), FloatVal(72000))
	t.Append(IntVal(2), StringVal("Cid"), FloatVal(31000))
	t.Append(IntVal(3), StringVal("Ada"), FloatVal(99000))
	return t
}

func TestTableBasics(t *testing.T) {
	tab := personTable()
	if tab.Len() != 4 {
		t.Fatalf("Len = %d", tab.Len())
	}
	r := tab.Row(1)
	if r[1].S != "Bob" || r[2].F != 72000 {
		t.Fatalf("Row(1) = %+v", r)
	}
	if tab.Schema.Col("income") != 2 || tab.Schema.Col("missing") != -1 {
		t.Fatal("Schema.Col broken")
	}
	if tab.Value(2, 1).S != "Cid" {
		t.Fatal("Value broken")
	}
}

func TestAppendWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad width")
		}
	}()
	personTable().Append(IntVal(9))
}

// TestAppendOutOfRangePanics pins the int32 cell contract: an Int or Node
// value outside int32 is a programming error that names the column, a
// rejected row leaves every column unchanged, and the int32 extremes
// themselves are stored exactly.
func TestAppendOutOfRangePanics(t *testing.T) {
	for _, tc := range []struct {
		typ Type
		v   int64
	}{
		{Int, math.MaxInt32 + 1},
		{Int, math.MinInt32 - 1},
		{Node, 1 << 32},
		{Node, math.MinInt64},
		{Int, math.MaxInt64},
	} {
		tab := NewTable("t", Schema{{"s", String}, {"k", tc.typ}})
		tab.Append(StringVal("lo"), Value{T: tc.typ, I: math.MinInt32})
		tab.Append(StringVal("hi"), Value{T: tc.typ, I: math.MaxInt32})
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "t.k") || !strings.Contains(msg, "int32") {
					t.Errorf("%s %d: panic %q, want one naming t.k and int32", tc.typ, tc.v, msg)
				}
			}()
			tab.Append(StringVal("out"), Value{T: tc.typ, I: tc.v})
		}()
		if tab.Len() != 2 || len(tab.CodeCol(0)) != 2 || len(tab.IntCol(1)) != 2 {
			t.Errorf("%s %d: rejected row changed the table: %d rows, columns %d/%d",
				tc.typ, tc.v, tab.Len(), len(tab.CodeCol(0)), len(tab.IntCol(1)))
		}
		if tab.Int(0, 1) != math.MinInt32 || tab.Int(1, 1) != math.MaxInt32 {
			t.Errorf("%s: extremes read back as %d, %d", tc.typ, tab.Int(0, 1), tab.Int(1, 1))
		}
	}
}

// TestFreezeSealsColumns pins the freeze: the first CreateIndex cuts every
// column to its exact length, and a table Reserved at its final row count
// is sealed without a copy.
func TestFreezeSealsColumns(t *testing.T) {
	sch := Schema{{"n", Node}, {"s", String}, {"f", Float}}
	fill := func(tab *Table, rows int) {
		for i := 0; i < rows; i++ {
			tab.Append(NodeVal(int64(i)), StringVal("v"), FloatVal(float64(i)))
		}
	}
	sealed := func(tab *Table) bool {
		n := tab.Len()
		return cap(tab.IntCol(0)) == n && cap(tab.CodeCol(1)) == n && cap(tab.FloatCol(2)) == n
	}

	grown := NewTable("grown", sch)
	fill(grown, 1000)
	if sealed(grown) {
		t.Fatal("append left no slack; the test proves nothing")
	}
	grown.CreateIndex(0)
	if !sealed(grown) {
		t.Errorf("after CreateIndex: caps %d/%d/%d for %d rows",
			cap(grown.IntCol(0)), cap(grown.CodeCol(1)), cap(grown.FloatCol(2)), grown.Len())
	}

	reserved := NewTable("reserved", sch)
	reserved.Reserve(1000)
	fill(reserved, 1000)
	before := &reserved.IntCol(0)[0]
	reserved.CreateIndex(1)
	if !sealed(reserved) || &reserved.IntCol(0)[0] != before {
		t.Error("a table Reserved at its row count was copied at the freeze")
	}
}

// TestIndexBuildOnce pins the build-once contract: an index is built
// over the finished column, re-creating it returns the same index, and a
// later Append is a programming error that names the table.
func TestIndexBuildOnce(t *testing.T) {
	tab := personTable()
	idx := tab.CreateIndex(1)
	rows := idx.LookupString("Ada")
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 3 {
		t.Fatalf("LookupString(Ada) = %v", rows)
	}
	if len(idx.LookupString("Zed")) != 0 {
		t.Fatal("phantom rows")
	}
	if tab.CreateIndex(1) != idx {
		t.Fatal("CreateIndex rebuilt an existing index")
	}
	if rows := tab.CreateIndex(0).LookupInt(2); len(rows) != 1 || rows[0] != 2 {
		t.Fatalf("LookupInt = %v", rows)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "person") || !strings.Contains(msg, "index") {
			t.Fatalf("Append after CreateIndex: panic %q, want one naming the table", msg)
		}
	}()
	tab.Append(IntVal(4), StringVal("Ada"), FloatVal(1))
}

func TestScanSelectProject(t *testing.T) {
	tab := personTable()
	it := Project(
		Select(Scan(tab), func(r Row) bool { return r[2].F > 40000 }),
		func(r Row) Row { return Row{r[1]} },
	)
	rows := Materialize(it)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].S != "Ada" || rows[1][0].S != "Bob" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoin(t *testing.T) {
	buys := NewTable("buys", Schema{{"person", Int}, {"item", String}})
	buys.Append(IntVal(0), StringVal("lamp"))
	buys.Append(IntVal(1), StringVal("vase"))
	buys.Append(IntVal(0), StringVal("desk"))
	buys.Append(IntVal(9), StringVal("ghost")) // dangling: no such person

	out := Materialize(HashJoin(Scan(personTable()), 0, Scan(buys), 0))
	if len(out) != 3 {
		t.Fatalf("join rows = %d", len(out))
	}
	for _, r := range out {
		if r[0].I != r[3].I {
			t.Fatalf("join key mismatch: %v", r)
		}
	}
}

func TestHashJoinStringKeysAcrossConstructors(t *testing.T) {
	// Keys built by different code paths must still match (mapKey).
	a := FromRows([]Row{{Value{T: String, S: "k", I: 42}}})
	b := FromRows([]Row{{StringVal("k")}})
	if got := len(Materialize(HashJoin(a, 0, b, 0))); got != 1 {
		t.Fatalf("join on equal strings found %d matches", got)
	}
}

func TestSortBy(t *testing.T) {
	rows := Materialize(SortBy(Scan(personTable()), 1, 2))
	want := []string{"Ada", "Ada", "Bob", "Cid"}
	for i, w := range want {
		if rows[i][1].S != w {
			t.Fatalf("sorted order wrong at %d: %v", i, rows)
		}
	}
	if rows[0][2].F > rows[1][2].F {
		t.Fatal("secondary sort key not applied")
	}
}

func TestSortRowsBy(t *testing.T) {
	tab := personTable()
	ids := tab.SortRowsBy(2)
	if tab.Row(int(ids[0]))[2].F != 31000 || tab.Row(int(ids[3]))[2].F != 99000 {
		t.Fatalf("SortRowsBy = %v", ids)
	}
}

func TestGroupCount(t *testing.T) {
	groups := GroupCount(Scan(personTable()), 1)
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0].Key.S != "Ada" || groups[0].Count != 2 {
		t.Fatalf("first group = %+v", groups[0])
	}
}

func TestCount(t *testing.T) {
	if n := Count(Scan(personTable())); n != 4 {
		t.Fatalf("Count = %d", n)
	}
}

func TestScanRows(t *testing.T) {
	tab := personTable()
	rows := Materialize(ScanRows(tab, []int32{3, 0}))
	if len(rows) != 2 || rows[0][2].F != 99000 || rows[1][2].F != 50000 {
		t.Fatalf("ScanRows = %v", rows)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	tab := NewTable("t", Schema{{"s", String}})
	before := tab.SizeBytes()
	tab.Append(StringVal("hello world"))
	if tab.SizeBytes() <= before {
		t.Fatal("SizeBytes did not grow")
	}
	withIdx := tab.SizeBytes()
	tab.CreateIndex(0)
	if tab.SizeBytes() <= withIdx {
		t.Fatal("index size not accounted")
	}
}

func TestValueEqualLess(t *testing.T) {
	if !IntVal(3).Equal(IntVal(3)) || IntVal(3).Equal(IntVal(4)) {
		t.Fatal("Int Equal broken")
	}
	if IntVal(3).Equal(FloatVal(3)) {
		t.Fatal("cross-type Equal")
	}
	if !StringVal("a").Less(StringVal("b")) || StringVal("b").Less(StringVal("a")) {
		t.Fatal("String Less broken")
	}
	if !FloatVal(1.5).Less(FloatVal(2)) {
		t.Fatal("Float Less broken")
	}
}

func TestHashJoinMatchesNestedLoopProperty(t *testing.T) {
	// Property: hash join result size equals nested-loop count on random
	// small int relations.
	f := func(as, bs []uint8) bool {
		ta := NewTable("a", Schema{{"k", Int}})
		tb := NewTable("b", Schema{{"k", Int}})
		for _, v := range as {
			ta.Append(IntVal(int64(v % 8)))
		}
		for _, v := range bs {
			tb.Append(IntVal(int64(v % 8)))
		}
		joined := len(Materialize(HashJoin(Scan(ta), 0, Scan(tb), 0)))
		want := 0
		for i := 0; i < ta.Len(); i++ {
			for j := 0; j < tb.Len(); j++ {
				if ta.Value(i, 0).I == tb.Value(j, 0).I {
					want++
				}
			}
		}
		return joined == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
