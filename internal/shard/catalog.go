// Package shard scales the query service out across N disjoint document
// shards behind one coordinator.
//
// The document generator's split mode (internal/xmlgen, paper §5) emits
// the benchmark document as numbered files of whole top-level entities
// in document order. A shard is a contiguous run of those files merged
// back into a well-formed document (internal/xmark.MergeCollection), so
// every shard repeats the replicated <site> envelope while owning a
// disjoint, contiguous, document-ordered slice of the entities — its
// *territory*, a pre-order NodeID range of the unsharded document.
//
// That territory invariant is what makes the scatter-gather merge
// trivial and provably correct: it is the PR 4 ordered-gather argument
// (partition i's subtrees end before partition i+1's begin) applied at
// the document level, checked at load time with
// nodestore.MergeTerritoryOrdered rather than assumed.
//
// Each shard carries its own stores, plan cache, and bounded worker
// pool (a service.Catalog + service.Executor); the Coordinator plans a
// query once (the shardability analysis plan.ShardableQuery), scatters
// per-shard sub-queries, and merges in global document order. A failed
// shard fails the whole query.
package shard

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/nodestore"
	"repro/internal/service"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlgen"
)

// Shard is one loaded partition: its catalog (stores + plan cache per
// system) plus its territory in the global document.
type Shard struct {
	// Index is the shard's position; shard order is document order.
	Index int
	// Territory is the shard's slice of the unsharded document's
	// pre-order NodeID space. Empty shards (more shards than entities)
	// have an empty territory.
	Territory nodestore.Territory
	// Entities is the number of top-level entities the shard owns.
	Entities int
	// DocBytes is the size of the shard's merged document text.
	DocBytes int
	// Catalog holds the shard's own stores and compiled benchmark
	// queries for every loaded system.
	Catalog *service.Catalog
}

// ShardedCatalog is the immutable load-once state of a sharded
// deployment: N shard catalogs plus one unsharded global replica that
// serves the queries the shardability analysis cannot decompose.
type ShardedCatalog struct {
	Shards []*Shard
	// Global is the unsharded replica: byte-identical reference for the
	// scatter path and the execution target of non-shardable queries.
	Global *service.Catalog
	// LoadTime is the total wall time of Load: generation, splitting,
	// per-shard merge and bulkload, and the territory invariant check.
	LoadTime time.Duration
}

// Load generates the benchmark document at factor, splits it into
// entity files, distributes contiguous file runs over nshards shards
// (balanced by entity count), bulkloads each shard and the unsharded
// global replica into the given systems (all seven when nil), and
// verifies the territory invariant.
func Load(factor float64, nshards int, systems []xmark.System) (*ShardedCatalog, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", nshards)
	}
	start := time.Now()
	bench := xmark.NewBenchmark(factor)

	files, err := splitFiles(factor, bench.Card, nshards)
	if err != nil {
		return nil, fmt.Errorf("shard: splitting document: %w", err)
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)

	// Entity count per file, in file (= document) order.
	perFile := make([]int, len(names))
	total := 0
	for i, name := range names {
		doc, err := tree.Parse(files[name])
		if err != nil {
			return nil, fmt.Errorf("shard: split file %s: %w", name, err)
		}
		perFile[i] = len(entityRoots(doc))
		total += perFile[i]
	}
	if total == 0 {
		return nil, fmt.Errorf("shard: document at factor %g has no entities", factor)
	}

	// Contiguous balanced distribution: the file whose entities start at
	// cumulative position c goes to shard c*nshards/total. Cumulative
	// positions are non-decreasing, so each shard gets a contiguous file
	// run and shard order stays document order.
	groups := make([]map[string][]byte, nshards)
	shardEntities := make([]int, nshards)
	for i := range groups {
		groups[i] = map[string][]byte{}
	}
	cum := 0
	for i, name := range names {
		s := cum * nshards / total
		if s >= nshards {
			s = nshards - 1
		}
		groups[s][name] = files[name]
		shardEntities[s] += perFile[i]
		cum += perFile[i]
	}

	sc := &ShardedCatalog{Shards: make([]*Shard, nshards)}
	for i, group := range groups {
		merged, err := xmark.MergeCollection(group)
		if err != nil {
			return nil, fmt.Errorf("shard: merging shard %d: %w", i, err)
		}
		cat, err := service.LoadDoc(merged, bench.Card, factor, systems)
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
		}
		sc.Shards[i] = &Shard{
			Index:    i,
			Entities: shardEntities[i],
			DocBytes: len(merged),
			Catalog:  cat,
		}
	}
	sc.Global, err = service.LoadDoc(bench.DocText, bench.Card, factor, systems)
	if err != nil {
		return nil, fmt.Errorf("shard: loading global replica: %w", err)
	}

	if err := sc.computeTerritories(bench.DocText, shardEntities); err != nil {
		return nil, err
	}
	sc.LoadTime = time.Since(start)
	return sc, nil
}

// computeTerritories maps each shard's entity run onto the unsharded
// document's NodeID space and checks the territory invariant: ascending,
// disjoint, and — via the same ordered merge the gather path relies on —
// exactly covering every entity in document order.
func (sc *ShardedCatalog) computeTerritories(docText []byte, shardEntities []int) error {
	gdoc, err := tree.Parse(docText)
	if err != nil {
		return fmt.Errorf("shard: parsing global document: %w", err)
	}
	entities := entityRoots(gdoc)
	sum := 0
	for _, n := range shardEntities {
		sum += n
	}
	if sum != len(entities) {
		return fmt.Errorf("shard: shards own %d entities, global document has %d", sum, len(entities))
	}

	territories := make([]nodestore.Territory, len(sc.Shards))
	parts := make([][]tree.NodeID, len(sc.Shards))
	off := 0
	for i, sh := range sc.Shards {
		n := shardEntities[i]
		if n == 0 {
			// Empty shard: zero-width territory at the current position.
			pos := tree.NodeID(0)
			if off > 0 {
				pos = gdoc.SubtreeEnd(entities[off-1])
			}
			territories[i] = nodestore.Territory{Lo: pos, Hi: pos}
			sh.Territory = territories[i]
			continue
		}
		run := entities[off : off+n]
		territories[i] = nodestore.Territory{
			Lo: run[0],
			Hi: gdoc.SubtreeEnd(run[n-1]),
		}
		parts[i] = run
		sh.Territory = territories[i]
		off += n
	}

	merged, err := nodestore.MergeTerritoryOrdered(territories, parts)
	if err != nil {
		return fmt.Errorf("shard: territory invariant violated: %w", err)
	}
	for i, id := range merged {
		if id != entities[i] {
			return fmt.Errorf("shard: territory merge order broken at entity %d: %d != %d", i, id, entities[i])
		}
	}
	return nil
}

// entityRoots returns the top-level entity nodes of a site document in
// document order: the children of each section, descending one more
// level into the region elements for items. It mirrors the walk
// MergeCollection uses to collect entities, so per-file counts, shard
// document contents, and the global territory map all agree.
func entityRoots(doc *tree.Doc) []tree.NodeID {
	var out []tree.NodeID
	root := doc.Root()
	for sec := doc.FirstChild(root); sec != tree.Nil; sec = doc.NextSibling(sec) {
		if doc.Tag(sec) == "regions" {
			for reg := doc.FirstChild(sec); reg != tree.Nil; reg = doc.NextSibling(reg) {
				for it := doc.FirstChild(reg); it != tree.Nil; it = doc.NextSibling(it) {
					out = append(out, it)
				}
			}
			continue
		}
		for e := doc.FirstChild(sec); e != tree.Nil; e = doc.NextSibling(e) {
			out = append(out, e)
		}
	}
	return out
}

// splitFiles runs the generator's split mode into memory, sized so the
// file count comfortably exceeds the shard count (files are the
// distribution granularity; ~8 per shard keeps the balance within a few
// percent without parsing overhead).
func splitFiles(factor float64, card xmlgen.Cardinalities, nshards int) (map[string][]byte, error) {
	total := card.Items + card.Categories + card.People + card.Open + card.Closed
	perFile := total / (nshards * 8)
	if perFile < 1 {
		perFile = 1
	}
	g := xmlgen.New(xmlgen.Options{Factor: factor})
	files := map[string]*bytes.Buffer{}
	err := g.WriteSplit(perFile, func(name string) (io.WriteCloser, error) {
		buf := &bytes.Buffer{}
		files[name] = buf
		return nopCloser{buf}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(files))
	for name, buf := range files {
		out[name] = buf.Bytes()
	}
	return out, nil
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
