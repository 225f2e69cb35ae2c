package service

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fulltext"
	"repro/internal/nodestore"
	"repro/internal/tree"
	"repro/internal/words"
	"repro/internal/xmark"
)

// indexHolder exposes the index a store has attached
// (nodestore.TextIndexHolder).
type indexHolder interface {
	TextIndex() nodestore.TextIndex
}

// probeRecorder passes every Candidates call through to the wrapped index
// and keeps the probes, so a test learns exactly what the planner asks.
type probeRecorder struct {
	nodestore.TextIndex
	calls []recordedProbe
}

type recordedProbe struct {
	tag    string
	probes []nodestore.TextProbe
}

func (r *probeRecorder) Candidates(tag string, probes []nodestore.TextProbe) ([]tree.NodeID, bool) {
	r.calls = append(r.calls, recordedProbe{tag, append([]nodestore.TextProbe(nil), probes...)})
	return r.TextIndex.Candidates(tag, probes)
}

// TestSharedFulltextIndexSound checks what lets a catalog build one text
// index for Systems A-E: over one parsed document, every A-E store's own
// index (fulltext.Build over that store) answers every probe the keyword
// queries make exactly like the shared one, and all seven stores agree on
// every text node's kind, parent and string value.
func TestSharedFulltextIndexSound(t *testing.T) {
	bench := xmark.NewBenchmark(0.01)
	c, err := LoadDoc(bench.DocText, bench.Card, bench.Factor, nil)
	if err != nil {
		t.Fatal(err)
	}
	instA, _ := c.Instance(xmark.SystemA)
	shared := instA.Engine.Store().(indexHolder).TextIndex()
	if shared == nil {
		t.Fatal("System A has no text index attached")
	}

	// The probes Q14 and Q21-Q23 make, as the planner makes them.
	sysD, _ := xmark.SystemByID(xmark.SystemD)
	doc, err := tree.Parse(bench.DocText)
	if err != nil {
		t.Fatal(err)
	}
	rec := &probeRecorder{TextIndex: shared}
	recD := sysD.Build(bench.DocText, doc, xmark.Shared{TextIndex: func() nodestore.TextIndex { return rec }})
	for _, qid := range []int{14, 21, 22, 23} {
		text, _ := c.QueryText(qid)
		if _, err := recD.Engine.Prepare(text); err != nil {
			t.Fatalf("Q%d: %v", qid, err)
		}
	}
	if len(rec.calls) == 0 {
		t.Fatal("no keyword query probed the index")
	}
	// Each recorded call as made, plus every chain it probes, and the
	// tag's whole subtree, with each needle at the benchmark's
	// selectivities.
	needles := []string{"gold"}
	for _, rank := range []int{0, 2, 257, 4099} {
		needles = append(needles, words.WordAt(rank))
	}
	cases := append([]recordedProbe(nil), rec.calls...)
	for _, call := range rec.calls {
		for _, p := range call.probes {
			for _, sub := range [][]string{p.Sub, nil} {
				for _, n := range needles {
					cases = append(cases, recordedProbe{call.tag, []nodestore.TextProbe{{Sub: sub, Needle: n}}})
				}
			}
		}
	}

	for _, sys := range c.Systems() {
		if !sys.Options().FulltextIndex {
			continue
		}
		inst, _ := c.Instance(sys.ID)
		store := inst.Engine.Store()
		if got := store.(indexHolder).TextIndex(); got != shared {
			t.Fatalf("System %s does not hold the shared index", sys.ID)
		}
		own := fulltext.Build(store)
		for _, k := range cases {
			want, wantOK := own.Candidates(k.tag, k.probes)
			got, gotOK := shared.Candidates(k.tag, k.probes)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("System %s, %s %+v: shared index gives %d candidates (ok=%v), own index %d (ok=%v)",
					sys.ID, k.tag, k.probes, len(got), gotOK, len(want), wantOK)
			}
		}
	}

	var ref nodestore.Store = nodestore.NewDOM("ref", doc, nodestore.DOMOptions{})
	texts := 0
	for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
		if ref.Kind(n) != tree.Text {
			continue
		}
		texts++
		for _, sys := range c.Systems() {
			inst, _ := c.Instance(sys.ID)
			s := inst.Engine.Store()
			if s.Kind(n) != tree.Text || s.Parent(n) != ref.Parent(n) || s.StringValue(n) != ref.StringValue(n) {
				t.Fatalf("System %s disagrees on text node %d", sys.ID, n)
			}
		}
	}
	if texts == 0 {
		t.Fatal("document has no text nodes")
	}
}

// TestCatalogSharesFulltextIndex checks that a catalog over A-F holds one
// text index and one parse: A-E report the same index with the same
// accounting, and the whole catalog load, plan compilation included,
// allocates well under what six standalone loads of the same text do.
func TestCatalogSharesFulltextIndex(t *testing.T) {
	bench := xmark.NewBenchmark(0.01)
	systems := xmark.MassStorageSystems()

	var standalone uint64
	for _, sys := range systems {
		before := totalAlloc()
		if _, err := sys.Load(bench.DocText); err != nil {
			t.Fatal(err)
		}
		standalone += totalAlloc() - before
	}
	before := totalAlloc()
	c, err := LoadDoc(bench.DocText, bench.Card, bench.Factor, systems)
	if err != nil {
		t.Fatal(err)
	}
	shared := totalAlloc() - before

	var first nodestore.TextIndex
	var firstInfo nodestore.TextIndexInfo
	for _, st := range c.TextIndexes() {
		inst, _ := c.Instance(st.System)
		if !inst.System.Options().FulltextIndex {
			if st.Built {
				t.Errorf("System %s reports a text index it does not use", st.System)
			}
			continue
		}
		store := inst.Engine.Store()
		idx := store.(indexHolder).TextIndex()
		info, built := store.(nodestore.TextSearcher).TextIndexInfo()
		if !built || !st.Built {
			t.Fatalf("System %s has no text index", st.System)
		}
		if first == nil {
			first, firstInfo = idx, info
			continue
		}
		if idx != first || info != firstInfo {
			t.Errorf("System %s: index %p %+v, want the shared %p %+v", st.System, idx, info, first, firstInfo)
		}
	}
	if c.TextIndexTime != firstInfo.BuildTime {
		t.Errorf("TextIndexTime %v, want the shared build time %v", c.TextIndexTime, firstInfo.BuildTime)
	}

	ratio := float64(shared) / float64(standalone)
	t.Logf("LoadDoc allocated %.1f MB, standalone loads %.1f MB (%.2f)", float64(shared)/1e6, float64(standalone)/1e6, ratio)
	if ratio > 0.6 {
		t.Errorf("LoadDoc allocated %.2f of the standalone loads, want at most 0.6", ratio)
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
