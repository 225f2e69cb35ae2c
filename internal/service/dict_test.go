package service

import (
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/nodestore"
	"repro/internal/relational"
	"repro/internal/tree"
	"repro/internal/xmark"
)

// dictHolder exposes the value dictionary of a relational store.
type dictHolder interface {
	Dict() *relational.Dict
}

// codeProbeRecorder passes every dictionary-coded call through to the
// store it wraps and keeps the arguments, so a test learns exactly what
// the engine asks of the dictionary: value codes, attribute codes and
// pushed-down filters.
type codeProbeRecorder struct {
	nodestore.Store
	mu       sync.Mutex
	values   []string
	attrs    []attrProbe
	filtered []filterProbe
}

type attrProbe struct {
	n    tree.NodeID
	name string
}

// filterProbe is one filtered scan: children of n by tag when path is
// nil, else the extent of path.
type filterProbe struct {
	n    tree.NodeID
	tag  string
	path []string
	fs   []nodestore.ValueFilter
}

func (r *codeProbeRecorder) CodeOf(v string) (int32, bool) {
	r.mu.Lock()
	r.values = append(r.values, v)
	r.mu.Unlock()
	return r.Store.(nodestore.AttrCoder).CodeOf(v)
}

func (r *codeProbeRecorder) AttrCode(n tree.NodeID, name string) (int32, bool) {
	r.mu.Lock()
	r.attrs = append(r.attrs, attrProbe{n, name})
	r.mu.Unlock()
	return r.Store.(nodestore.AttrCoder).AttrCode(n, name)
}

func (r *codeProbeRecorder) filter(p filterProbe) {
	r.mu.Lock()
	r.filtered = append(r.filtered, p)
	r.mu.Unlock()
}

func (r *codeProbeRecorder) ChildrenByTagFilteredCursor(n tree.NodeID, tag string, fs []nodestore.ValueFilter) (nodestore.Cursor, bool) {
	r.filter(filterProbe{n: n, tag: tag, fs: fs})
	return r.Store.ChildrenByTagFilteredCursor(n, tag, fs)
}

func (r *codeProbeRecorder) PathExtentFilteredCursor(path []string, fs []nodestore.ValueFilter) (nodestore.Cursor, bool) {
	r.filter(filterProbe{path: path, fs: fs})
	return r.Store.PathExtentFilteredCursor(path, fs)
}

func (r *codeProbeRecorder) PathExtentFilteredPartitions(path []string, fs []nodestore.ValueFilter, k int) ([]nodestore.Cursor, bool) {
	r.filter(filterProbe{path: path, fs: fs})
	return r.Store.PathExtentFilteredPartitions(path, fs, k)
}

// scan answers one filter probe on s: the ids the filtered cursor yields.
func (p filterProbe) scan(s nodestore.Store) ([]tree.NodeID, bool) {
	var cur nodestore.Cursor
	var ok bool
	if p.path == nil {
		cur, ok = s.ChildrenByTagFilteredCursor(p.n, p.tag, p.fs)
	} else {
		cur, ok = s.PathExtentFilteredCursor(p.path, p.fs)
	}
	var ids []tree.NodeID
	for ok {
		id, more := cur.Next()
		if !more {
			break
		}
		ids = append(ids, id)
	}
	return ids, ok
}

// TestSharedDictSound checks what lets a catalog build one value dictionary
// for Systems A-C: they hold the same sealed dictionary, and on every
// dictionary probe the 23 queries make — value codes, attribute codes and
// pushed-down filters, recorded as the engine makes them — each store
// answers over the shared dictionary exactly what the same store loaded
// alone answers over its own private one. Codes are compared decoded,
// since two dictionaries need not agree on them.
func TestSharedDictSound(t *testing.T) {
	bench := xmark.NewBenchmark(0.01)
	c, err := LoadDoc(bench.DocText, bench.Card, bench.Factor, nil)
	if err != nil {
		t.Fatal(err)
	}
	var shared *relational.Dict
	probes := map[string]int{}
	for _, id := range []xmark.SystemID{xmark.SystemA, xmark.SystemB, xmark.SystemC} {
		inst, _ := c.Instance(id)
		store := inst.Engine.Store()
		dict := store.(dictHolder).Dict()
		if shared == nil {
			shared = dict
		} else if dict != shared {
			t.Fatalf("System %s holds dictionary %p, A holds %p", id, dict, shared)
		}
		if st := c.Dictionary(); st.Values != dict.Len() || st.Bytes != dict.SizeBytes() {
			t.Errorf("catalog reports %+v, the shared dictionary has %d values in %d bytes", st, dict.Len(), dict.SizeBytes())
		}

		rec := &codeProbeRecorder{Store: store}
		eng := engine.New(rec, inst.System.Options())
		for _, q := range xmark.AllQueries() {
			text, _ := c.QueryText(q.ID)
			prep, err := eng.Prepare(text)
			if err != nil {
				t.Fatalf("System %s Q%d: %v", id, q.ID, err)
			}
			if err := prep.SerializeSession(io.Discard, engine.NewSession()); err != nil {
				t.Fatalf("System %s Q%d: %v", id, q.ID, err)
			}
		}
		probes["CodeOf"] += len(rec.values)
		probes["AttrCode"] += len(rec.attrs)
		probes["filter"] += len(rec.filtered)

		alone, err := inst.System.Load(bench.DocText)
		if err != nil {
			t.Fatal(err)
		}
		own := alone.Engine.Store()
		ownDict := own.(dictHolder).Dict()
		if ownDict == shared {
			t.Fatalf("System %s loaded alone shares the catalog's dictionary", id)
		}
		coder, ownCoder := store.(nodestore.AttrCoder), own.(nodestore.AttrCoder)
		decode := func(d *relational.Dict, c int32, ok bool) string {
			if !ok {
				return "<absent>"
			}
			return d.Name(c)
		}
		for _, v := range rec.values {
			c, ok := coder.CodeOf(v)
			oc, ook := ownCoder.CodeOf(v)
			got, want := decode(shared, c, ok), decode(ownDict, oc, ook)
			if got != want || (ok && got != v) {
				t.Errorf("System %s CodeOf(%q): shared %q, own %q", id, v, got, want)
			}
		}
		for _, p := range rec.attrs {
			c, ok := coder.AttrCode(p.n, p.name)
			oc, ook := ownCoder.AttrCode(p.n, p.name)
			got, want := decode(shared, c, ok), decode(ownDict, oc, ook)
			if got != want {
				t.Errorf("System %s AttrCode(%d, %s): shared %q, own %q", id, p.n, p.name, got, want)
			}
		}
		for _, p := range rec.filtered {
			got, gotOK := p.scan(store)
			want, wantOK := p.scan(own)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("System %s filter %+v: shared %d ids (ok=%v), own %d (ok=%v)", id, p, len(got), gotOK, len(want), wantOK)
			}
		}
	}
	for kind, n := range probes {
		if n == 0 {
			t.Errorf("no query made a %s probe on A-C", kind)
		}
	}
	t.Logf("probes replayed: %v", probes)
}

// TestCatalogLiveHeap pins the heap a catalog of Systems A-F keeps, per
// byte of document: the live-heap growth of LoadDoc, plan cache included.
// One flat dictionary for A-C instead of three map-based ones took it
// from 12.4 to 10.6 bytes per document byte at factor 0.02 (23.1 → 19.8
// MB), and from 95.3 to 82.2 MB at factor 0.1; the bound sits between
// the two.
func TestCatalogLiveHeap(t *testing.T) {
	const maxCatalogHeapPerByte = 11.5
	bench := xmark.NewBenchmark(0.02)
	before := liveHeap()
	c, err := LoadDoc(bench.DocText, bench.Card, bench.Factor, xmark.MassStorageSystems())
	if err != nil {
		t.Fatal(err)
	}
	kept := liveHeap() - before
	perByte := float64(kept) / float64(len(bench.DocText))
	t.Logf("LoadDoc of A-F keeps %.1f MB over a %.1f MB document (%.2f bytes per byte)",
		float64(kept)/1e6, float64(len(bench.DocText))/1e6, perByte)
	if perByte > maxCatalogHeapPerByte {
		t.Errorf("LoadDoc keeps %.2f bytes per document byte, want at most %.2f", perByte, maxCatalogHeapPerByte)
	}
	runtime.KeepAlive(c)
}

// liveHeap returns the heap in use after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
