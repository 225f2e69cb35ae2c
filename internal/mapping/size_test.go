package mapping_test

import (
	"runtime"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestore"
	"repro/internal/tree"
	"repro/internal/xmlgen"
)

// TestStatsSizeHonest holds Stats().SizeBytes — the Table 1 "database
// size" and the service's store_bytes gauge — to the heap the store really
// keeps: the live-heap growth of parsing and loading with the Doc dropped
// (no text index, which reports its own bytes). Accounting more than is
// resident is a bug; less than nine tenths means Stats leaves out
// structures the store keeps (vector capacity, map slots, the path
// catalog).
func TestStatsSizeHonest(t *testing.T) {
	xml := []byte(xmlgen.New(xmlgen.Options{Factor: 0.02}).String())
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, build := range []func(*tree.Doc) nodestore.Store{
		func(d *tree.Doc) nodestore.Store { return mapping.NewEdge(d) },
		func(d *tree.Doc) nodestore.Store { return mapping.NewPath(d) },
		func(d *tree.Doc) nodestore.Store { return mapping.NewInline(d) },
	} {
		before := liveHeap()
		doc, err := tree.Parse(xml)
		if err != nil {
			t.Fatal(err)
		}
		s := build(doc)
		doc = nil
		measured := liveHeap() - before
		accounted := s.Stats().SizeBytes
		t.Logf("%s: accounted %d B, resident %d B (%.2f)", s.Name(), accounted, measured, float64(accounted)/float64(measured))
		if accounted > measured || accounted*10 < measured*9 {
			t.Errorf("%s: Stats().SizeBytes = %d, resident heap = %d", s.Name(), accounted, measured)
		}
		runtime.KeepAlive(s)
	}
	runtime.KeepAlive(xml)
}
