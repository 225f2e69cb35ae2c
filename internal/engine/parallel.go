package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nodestore"
	"repro/internal/obs"
	"repro/internal/plan"
)

// This file is the physical side of the planner's parallelize rule:
// morsel-style intra-query parallelism. A Gather node partitions its
// PartitionedScan leaf through the store's *Partitions methods and
// runs one copy of the compiled sub-pipeline per partition, each on its
// own goroutine with a private Session (all evaluator scratch stays
// strictly per worker, the same contract the concurrent service relies
// on). Partition ranges are disjoint and totally ordered in document
// order, and every operator the rule admits is order-preserving and
// confined to its partition's territory, so the ordered gather —
// emitting partition 0's items, then partition 1's, and so on — IS the
// NodeID merge, and output stays byte-identical to sequential evaluation
// at every degree. Count recombines by partial sums instead, so counting
// workers never materialize their morsels.

// abortCheckInterval is how many items a partition worker produces
// between abort-flag checks: small enough that an erroring sibling or a
// canceled execution stops the whole fan-out promptly, large enough to
// keep the atomic load off the per-item hot path.
const abortCheckInterval = 64

// gather is one live fan-out: per-partition result slots plus the shared
// abort flag and the wait group the owning execution joins on shutdown.
type gather struct {
	abort atomic.Bool
	wg    sync.WaitGroup
	parts []gatherPart
	// gs records per-morsel rows and worker wall time for EXPLAIN
	// ANALYZE; nil on uninstrumented executions. Workers write disjoint
	// slots, published to the report renderer by the done-channel close
	// and the execution's final wg.Wait.
	gs *gatherStats
	// span, when non-nil, is the request trace's gather span; each worker
	// appends its morsel as a timed child (Span is concurrency-safe).
	span *obs.Span
}

// gatherPart is one partition worker's result slot, published by closing
// done. err holds a recovered evaluation panic; the consumer re-raises it
// on its own goroutine so errors surface exactly like sequential ones.
type gatherPart struct {
	done  chan struct{}
	items Seq
	count int
	err   any
}

// degreeFor resolves the effective degree of one Gather node: the
// session's parallelism budget clamped by the plan's MaxDegree.
func (ev *evaluator) degreeFor(n *plan.Node) int {
	k := ev.degree
	if n.Degree > 0 && n.Degree < k {
		k = n.Degree
	}
	return k
}

// partitions asks the store to split the gather's scan leaf into at most
// k morsels. ok is false when the scan must run sequentially instead: a
// degree-1 budget, a store that lost the capability, or an extent too
// small to be worth fanning out.
func (ev *evaluator) partitions(scan *plan.Node, k int) ([]nodestore.Cursor, bool) {
	if k <= 1 {
		return nil, false
	}
	var parts []nodestore.Cursor
	var ok bool
	switch {
	case scan.Tag != "":
		parts, ok = ev.store.TagExtentPartitions(scan.Tag, k)
	case len(scan.Filters) > 0:
		parts, ok = ev.store.PathExtentFilteredPartitions(scan.Path, scan.Filters, k)
	default:
		parts, ok = ev.store.PathExtentPartitions(scan.Path, k)
	}
	if !ok || len(parts) <= 1 {
		return nil, false
	}
	return parts, true
}

// iterGather executes a Gather node: partition the scan and fan the
// sub-pipeline out, or fall through to plain sequential evaluation of the
// sub-pipeline when partitioning is off or unavailable.
func (ev *evaluator) iterGather(n *plan.Node, env *bindings) Iterator {
	parts, ok := ev.partitions(n.Scan, ev.degreeFor(n))
	if !ok {
		return ev.iter(n.Input, env)
	}
	return &gatherIter{g: ev.spawn(n, env, parts, false)}
}

// gatherCount executes count() over a Gather argument by partial sums.
// ok is false when the scan does not partition; the caller then drains
// the (sequential) pipeline normally.
func (ev *evaluator) gatherCount(n *plan.Node, env *bindings) (int, bool) {
	parts, ok := ev.partitions(n.Scan, ev.degreeFor(n))
	if !ok {
		return 0, false
	}
	g := ev.spawn(n, env, parts, true)
	total := 0
	for i := range g.parts {
		p := &g.parts[i]
		<-p.done
		if p.err != nil {
			panic(p.err)
		}
		total += p.count
	}
	return total, true
}

// spawn launches one worker per partition and registers the gather with
// this execution so stopGathers can end it. Workers share only immutable
// state — the plan, the loaded store, the environment's materialized
// bindings — and each owns a fresh Session; a worker's session budget is
// zero, so gathers nested inside a partitioned sub-pipeline run
// sequentially instead of fanning out recursively.
func (ev *evaluator) spawn(n *plan.Node, env *bindings, parts []nodestore.Cursor, countOnly bool) *gather {
	g := &gather{parts: make([]gatherPart, len(parts))}
	if ev.prof != nil {
		g.gs = &gatherStats{parts: make([]partStat, len(parts))}
		ev.prof.gathers[n] = g.gs
	}
	if ev.sess.Trace != nil {
		g.span = ev.sess.Trace.Child("gather")
		g.span.Set("degree", fmt.Sprintf("%d", len(parts)))
	}
	ev.gathers = append(ev.gathers, g)
	g.wg.Add(len(parts))
	for i, cur := range parts {
		g.parts[i].done = make(chan struct{})
		wev := &evaluator{
			store:     ev.store,
			opts:      ev.opts,
			funcs:     ev.funcs,
			sess:      NewSession(),
			part:      cur,
			partNode:  n.Scan,
			batchSize: ev.batchSize,
		}
		go g.work(i, wev, n.Input, env, countOnly)
	}
	return g
}

// work runs one partition worker: build the sub-pipeline over the
// partition cursor, drain it into the result slot, and convert panics
// into the slot's err while aborting the siblings.
func (g *gather) work(i int, wev *evaluator, pipe *plan.Node, env *bindings, countOnly bool) {
	p := &g.parts[i]
	defer g.wg.Done()
	defer close(p.done)
	defer func() {
		if r := recover(); r != nil {
			p.err = r
			g.abort.Store(true)
		}
	}()
	if g.gs != nil || g.span != nil {
		start := time.Now()
		// Registered after the recover, so it observes the slot even when
		// the worker panics; it runs before close(p.done), so the counters
		// are published with the slot.
		defer func() {
			rows := int64(p.count) + int64(len(p.items))
			ns := int64(time.Since(start))
			if g.gs != nil {
				g.gs.parts[i] = partStat{rows: rows, ns: ns}
			}
			if g.span != nil {
				sp := g.span.Add(fmt.Sprintf("morsel %d", i), time.Duration(ns))
				sp.Set("rows", fmt.Sprintf("%d", rows))
			}
		}()
	}
	if countOnly {
		// A counting worker over a vectorized sub-pipeline sums batch
		// lengths instead of boxing every morsel id through the item
		// pipeline; the abort flag is checked between batches.
		if bi := wev.batchOf(pipe, env); bi != nil {
			for {
				if g.abort.Load() {
					return
				}
				ids := bi.nextBatch()
				if ids == nil {
					return
				}
				p.count += len(ids)
			}
		}
	}
	it := wev.iter(pipe, env)
	for produced := 0; ; produced++ {
		if produced%abortCheckInterval == 0 && g.abort.Load() {
			return
		}
		v, ok := it.Next()
		if !ok {
			return
		}
		if countOnly {
			p.count++
		} else {
			p.items = append(p.items, v)
		}
	}
}

// gatherIter is the ordered gather: it emits each partition's items in
// partition-index order, blocking until the next partition completes.
// Disjoint ordered partition territories make this concatenation the
// document-order (NodeID) merge.
type gatherIter struct {
	g   *gather
	i   int
	cur Seq
	ci  int
}

func (it *gatherIter) Next() (Item, bool) {
	for {
		if it.ci < len(it.cur) {
			v := it.cur[it.ci]
			it.ci++
			return v, true
		}
		if it.i >= len(it.g.parts) {
			return nil, false
		}
		p := &it.g.parts[it.i]
		it.i++
		<-p.done
		if p.err != nil {
			// Re-raise on the consuming goroutine: evaluation errors
			// surface through the execute recover exactly like
			// sequential ones (stopGathers ends the siblings).
			panic(p.err)
		}
		it.cur, it.ci = p.items, 0
	}
}

// stopGathers ends every fan-out of this execution: the abort flag stops
// in-flight partition workers at their next check and the wait ensures no
// worker outlives the execution. execute defers it, so workers are gone
// by the time an execution returns — whether it finished, errored, or its
// consumer stopped pulling mid-stream (a canceled service request).
func (ev *evaluator) stopGathers() {
	for _, g := range ev.gathers {
		g.abort.Store(true)
	}
	for _, g := range ev.gathers {
		g.wg.Wait()
	}
}

// partScanCursor opens the store cursor of a PartitionedScan leaf: the
// bound partition cursor when this evaluator is a partition worker for
// this scan node, and the full sequential scan otherwise. The sequential
// forms are exactly the scans the parallelize rule replaced — the path
// extent (optionally filtered) cursor, or the root element's tag-labeled
// descendants — so a degree-1 execution is byte-identical to the
// pre-rewrite plan. Both the tuple and the batch scan operators pull from
// it, which is how vectorization composes under Gather: a partition
// worker's batch pipeline fills its vectors from the morsel cursor.
func (ev *evaluator) partScanCursor(n *plan.Node) nodestore.Cursor {
	if ev.partNode == n {
		cur := ev.part
		if cur == nil {
			// The parallelize rule only marks scans built once per
			// execution; a second build means the invariant broke.
			errf("partitioned scan consumed twice")
		}
		ev.part = nil
		return cur
	}
	if n.Tag != "" {
		return ev.store.DescendantsCursor(ev.store.Root(), n.Tag)
	}
	if len(n.Filters) > 0 {
		if cur, ok := ev.store.PathExtentFilteredCursor(n.Path, n.Filters); ok {
			return cur
		}
	} else if cur, ok := ev.store.PathExtentCursor(n.Path); ok {
		return cur
	}
	// Unreachable for planned scans: the planner probed the catalog.
	errf("store cannot answer partitioned scan")
	return nil
}
