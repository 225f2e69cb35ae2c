// Package service turns the single-query benchmark harness into a
// concurrent query service: a load-once immutable Catalog (document,
// stores, compiled plan cache), a bounded worker-pool Executor with
// admission queueing and per-request cancellation, and a Metrics
// collector (QPS, latency percentiles, queue depth).
//
// The paper measures its seven systems one query at a time; this package
// opens the multi-user axis on top of the same engine and stores. The
// concurrency contract is strict and simple:
//
//   - Everything in the Catalog is immutable after Load: the parsed
//     document, every nodestore.Store (their indexes are built at load),
//     and every engine.Prepared (its analysis is published by Prepare).
//     Any number of goroutines may read them.
//   - Everything mutable is per-worker: each Executor worker owns one
//     engine.Session (recycled iterators, memoized join build sides) that
//     never crosses goroutines.
package service

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fulltext"
	"repro/internal/nodestore"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlgen"
)

// prepKey identifies one compiled plan-cache entry: system × query.
type prepKey struct {
	sys xmark.SystemID
	qid int
}

// Catalog is the shared, immutable state of a query service: one
// generated document loaded into every system architecture, plus every
// numbered query — the paper's twenty and the hybrid keyword extensions
// (21+) — compiled against every system. Load it once, share it from any
// number of goroutines.
type Catalog struct {
	// Factor is the scaling factor of the loaded document.
	Factor float64
	// Card is the document's entity cardinalities.
	Card xmlgen.Cardinalities
	// DocBytes is the size of the generated document text.
	DocBytes int
	// LoadTime is the total wall time of the load: generation, the one
	// parse, the store builds with the shared text index alongside them,
	// and plan-cache compilation. The three phase times below are parts
	// of it; GenerateTime is zero from LoadDoc, TextIndexTime when no
	// loaded system uses the index.
	LoadTime, GenerateTime, ParseTime, TextIndexTime time.Duration

	systems   []xmark.System
	instances map[xmark.SystemID]*xmark.Instance
	prepared  map[prepKey]*engine.Prepared
	queryText map[int]string
}

// Load generates the benchmark document at factor, bulkloads it into each
// of the given systems (all seven when systems is nil), and compiles every
// numbered query against each system into the plan cache.
//
// See LoadDoc for how the load is shared and parallelized.
func Load(factor float64, systems []xmark.System) (*Catalog, error) {
	start := time.Now()
	bench := xmark.NewBenchmark(factor)
	generated := time.Since(start)
	c, err := LoadDoc(bench.DocText, bench.Card, factor, systems)
	if err != nil {
		return nil, err
	}
	c.GenerateTime = generated
	c.LoadTime += generated
	return c, nil
}

// LoadDoc bulkloads an already generated document text into each system
// and compiles the benchmark queries, exactly like Load without the
// generation step. card must be the cardinalities of the full benchmark
// document the text derives from, which may be larger than the text
// itself: a sharded deployment loads each shard's partition text with the
// *global* cardinalities so that cardinality-dependent query constants
// (Q4's person IDs) are identical on every shard and on the unsharded
// reference.
//
// The document is parsed once and every store builds from that one tree,
// so the text is resident once; Systems A-E share one text index, sound
// because every mapping keeps the document's pre-order NodeIDs. Store
// builds and Prepare calls run concurrently, bounded by GOMAXPROCS, with
// the index build holding one slot. Each goroutine fills its own result
// slot and the shared maps are written after all have finished, keeping
// the published Catalog immutable.
func LoadDoc(docText []byte, card xmlgen.Cardinalities, factor float64, systems []xmark.System) (*Catalog, error) {
	if systems == nil {
		systems = xmark.Systems()
	}
	start := time.Now()
	c := &Catalog{
		Factor:    factor,
		Card:      card,
		DocBytes:  len(docText),
		systems:   systems,
		instances: make(map[xmark.SystemID]*xmark.Instance, len(systems)),
		prepared:  make(map[prepKey]*engine.Prepared),
		queryText: make(map[int]string),
	}
	for _, q := range xmark.AllQueries() {
		c.queryText[q.ID] = q.Text(card)
	}

	doc, err := tree.Parse(docText)
	if err != nil {
		return nil, fmt.Errorf("service: parsing document: %w", err)
	}
	c.ParseTime = time.Since(start)

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var textIndex func() nodestore.TextIndex
	for _, s := range systems {
		if s.Options().FulltextIndex {
			textIndex = buildTextIndex(doc, sem)
			break
		}
	}

	type loaded struct {
		inst     *xmark.Instance
		prepared map[int]*engine.Prepared
		err      error
	}
	results := make([]loaded, len(systems))
	var wg sync.WaitGroup
	for i, s := range systems {
		wg.Add(1)
		go func(i int, s xmark.System) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := &results[i]
			r.inst = s.Build(docText, doc, textIndex)
			r.prepared = make(map[int]*engine.Prepared, len(c.queryText))
			for qid, text := range c.queryText {
				prep, err := r.inst.Engine.Prepare(text)
				if err != nil {
					r.err = fmt.Errorf("service: compiling Q%d for system %s: %w", qid, s.ID, err)
					return
				}
				r.prepared[qid] = prep
			}
		}(i, s)
	}
	wg.Wait()
	for i, s := range systems {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		c.instances[s.ID] = r.inst
		for qid, prep := range r.prepared {
			c.prepared[prepKey{s.ID, qid}] = prep
		}
	}
	if textIndex != nil {
		c.TextIndexTime = textIndex().Info().BuildTime
	}
	c.LoadTime = time.Since(start)
	return c, nil
}

// buildTextIndex starts building the text index over doc and returns a
// function that waits for it. The build takes its slot of sem before
// returning, so loaders waiting for the index can never starve it.
func buildTextIndex(doc *tree.Doc, sem chan struct{}) func() nodestore.TextIndex {
	var idx nodestore.TextIndex
	done := make(chan struct{})
	sem <- struct{}{}
	go func() {
		defer func() { <-sem }()
		idx = fulltext.Build(nodestore.NewDOM("text", doc, nodestore.DOMOptions{}))
		close(done)
	}()
	return func() nodestore.TextIndex {
		<-done
		return idx
	}
}

// Systems returns the loaded system architectures in load order.
func (c *Catalog) Systems() []xmark.System { return c.systems }

// StoreSize is one loaded system's attributed database size: the store's
// own accounting (nodestore.Stats.SizeBytes, the paper's Table 1 column),
// which leaves the text index to TextIndexStatus. The stores of a catalog
// share one text heap and each counts it, so the sizes add up to more than
// is resident.
type StoreSize struct {
	System xmark.SystemID `json:"system"`
	Bytes  int64          `json:"bytes"`
}

// StoreBytes reports the store size of every loaded system, in catalog
// order.
func (c *Catalog) StoreBytes() []StoreSize {
	out := make([]StoreSize, 0, len(c.systems))
	for _, sys := range c.systems {
		out = append(out, StoreSize{sys.ID, c.instances[sys.ID].Stats.SizeBytes})
	}
	return out
}

// TextIndexStatus is one loaded system's inverted text index accounting,
// surfaced by the service's health and stats endpoints. Built is false
// for the architectures that run without the index (the plain-traversal
// and embedded systems) — they serve every keyword query by scan. Systems
// A-E share one index, so they all report the same one, build time
// included; its bytes are resident once.
type TextIndexStatus struct {
	System   xmark.SystemID `json:"system"`
	Built    bool           `json:"built"`
	Terms    int            `json:"terms,omitempty"`
	Postings int            `json:"postings,omitempty"`
	Bytes    int64          `json:"bytes,omitempty"`
	BuildMs  float64        `json:"build_ms,omitempty"`
}

// TextIndexes reports the full-text index status of every loaded system,
// in catalog order.
func (c *Catalog) TextIndexes() []TextIndexStatus {
	out := make([]TextIndexStatus, 0, len(c.systems))
	for _, sys := range c.systems {
		st := TextIndexStatus{System: sys.ID}
		inst := c.instances[sys.ID]
		if info, built := inst.Engine.Store().TextIndexInfo(); built {
			st.Built = true
			st.Terms = info.Terms
			st.Postings = info.Postings
			st.Bytes = info.Bytes
			st.BuildMs = float64(info.BuildTime) / 1e6
		}
		out = append(out, st)
	}
	return out
}

// Instance returns the loaded instance of the system.
func (c *Catalog) Instance(sys xmark.SystemID) (*xmark.Instance, error) {
	inst, ok := c.instances[sys]
	if !ok {
		return nil, fmt.Errorf("service: system %s not loaded", sys)
	}
	return inst, nil
}

// QueryIDs returns the numbers of the queries in the plan cache, ascending.
func (c *Catalog) QueryIDs() []int {
	ids := make([]int, 0, len(c.queryText))
	for id := range c.queryText {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// QueryText returns the source of benchmark query qid adapted to the
// loaded document.
func (c *Catalog) QueryText(qid int) (string, error) {
	text, ok := c.queryText[qid]
	if !ok {
		return "", fmt.Errorf("service: no benchmark query Q%d", qid)
	}
	return text, nil
}

// Prepared returns the cached compiled plan of benchmark query qid on the
// system.
func (c *Catalog) Prepared(sys xmark.SystemID, qid int) (*engine.Prepared, error) {
	prep, ok := c.prepared[prepKey{sys, qid}]
	if !ok {
		if _, loaded := c.instances[sys]; !loaded {
			return nil, fmt.Errorf("service: system %s not loaded", sys)
		}
		return nil, fmt.Errorf("service: no benchmark query Q%d", qid)
	}
	return prep, nil
}

// Explain renders the cached optimized plan of benchmark query qid on the
// system — the plan tree and the optimizer rules that fired — without
// executing anything.
func (c *Catalog) Explain(sys xmark.SystemID, qid int) (string, error) {
	prep, err := c.Prepared(sys, qid)
	if err != nil {
		return "", err
	}
	return prep.Explain(), nil
}

// PrepareText compiles an ad-hoc query against the system. The result is
// not cached; callers that re-execute should hold on to it.
func (c *Catalog) PrepareText(sys xmark.SystemID, src string) (*engine.Prepared, error) {
	inst, err := c.Instance(sys)
	if err != nil {
		return nil, err
	}
	return inst.Engine.Prepare(src)
}
