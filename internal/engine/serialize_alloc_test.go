package engine

import (
	"io"
	"strings"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
)

// allocWriterFixture builds a warm writer over a small DOM store,
// returning the writer plus one clean text node and one small element
// subtree to serialize. The writer serializes the element once so its
// buffer holds steady-state capacity before any measurement.
func allocWriterFixture(tb testing.TB) (*ItemWriter, NodeItem, NodeItem) {
	tb.Helper()
	doc, err := tree.Parse([]byte(`<site><t>` +
		strings.Repeat("plain auction description words ", 4) +
		`</t><item id="i7" featured="yes"><name>widget</name><qty>3</qty></item></site>`))
	if err != nil {
		tb.Fatal(err)
	}
	store := nodestore.NewDOM("dom", doc, nodestore.DOMOptions{})
	var txt, elem tree.NodeID = tree.Nil, tree.Nil
	for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
		switch {
		case doc.Kind(n) == tree.Text && txt == tree.Nil:
			txt = n
		case doc.Tag(n) == "item":
			elem = n
		}
	}
	bw := NewItemWriter(io.Discard, store)
	for _, n := range []tree.NodeID{txt, elem} {
		if err := bw.WriteItem(NodeItem{ID: n}); err != nil {
			tb.Fatal(err)
		}
	}
	return bw, NodeItem{ID: txt}, NodeItem{ID: elem}
}

// TestCleanTextWriterZeroAlloc pins the serializer's fast-path
// contract: once the output buffer is warm, a clean text node costs zero
// allocations per item, and a stored element subtree emits through the
// interned-bytes range walk without allocating either.
func TestCleanTextWriterZeroAlloc(t *testing.T) {
	bw, txt, elem := allocWriterFixture(t)
	if avg := testing.AllocsPerRun(500, func() {
		if err := bw.WriteItem(txt); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("writer allocates %.1f per clean text node", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if err := bw.WriteItem(elem); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("writer allocates %.1f per stored subtree", avg)
	}
}

// BenchmarkItemWriterText shows the per-item cost of the two emission
// paths (run with -benchmem: both report 0 allocs/op).
func BenchmarkItemWriterText(b *testing.B) {
	bw, txt, elem := allocWriterFixture(b)
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bw.WriteItem(txt)
		}
	})
	b.Run("subtree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bw.WriteItem(elem)
		}
	})
}
