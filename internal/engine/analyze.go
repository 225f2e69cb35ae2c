package engine

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/plan"
	"repro/internal/tree"
)

// This file is EXPLAIN ANALYZE: per-operator runtime counters collected by
// instrumentation wrappers the evaluator splices into the pipeline only
// when a profile is present: the caller asked for one execution's counters
// through Prepared.ExplainAnalyze. The normal path carries a nil
// profile and pays exactly one pointer check per operator *construction*
// (never per Next call), so instrumentation-off execution is unchanged.
//
// Counter semantics: every figure is inclusive — an operator's time
// contains the time of everything beneath it in the pipeline, exactly like
// the wall-clock attribution of a sampled profile collapsed onto the plan
// tree. Rows/next() count the item stream, batches/ids count the vector
// stream (a node consumed vector-at-a-time reports ids, not rows), tuples
// count the binding stream of FLWOR operators. Gather fan-outs additionally
// record per-morsel row counts and worker wall times, from which the
// report derives the skew (max/mean worker time).

// opStats is one plan operator's runtime counters. All fields are written
// by the single goroutine that owns the (root) evaluator; partition
// workers do not carry a profile and report through gatherStats slots
// instead.
type opStats struct {
	nexts   int64 // Next() calls answered (item stream)
	rows    int64 // items produced
	batches int64 // nextBatch() fills answered (vector stream)
	ids     int64 // NodeIDs produced across all batches
	tuples  int64 // binding tuples produced (FLWOR operators)
	ns      int64 // cumulative inclusive time, construction + pulls
}

// partStat is one morsel worker's contribution to a gather fan-out.
type partStat struct {
	rows int64
	ns   int64
}

// gatherStats records one Gather node's actual fan-out: the per-partition
// slots are written by the workers (slot-per-worker, published by the
// done-channel close and the execution's wg.Wait) and read only after the
// execution finishes.
type gatherStats struct {
	parts []partStat
}

// profile is one instrumented execution's counter store, keyed by plan
// node identity. It lives for exactly one execution and is read by the
// report renderer after the pipeline is drained.
type profile struct {
	ops     map[*plan.Node]*opStats
	gathers map[*plan.Node]*gatherStats
}

func newProfile() *profile {
	return &profile{
		ops:     make(map[*plan.Node]*opStats),
		gathers: make(map[*plan.Node]*gatherStats),
	}
}

// statsFor returns the counter slot of n, creating it on first use, or nil
// for operators the profiler does not track (trivial scalar forms and
// pass-through nodes, which would only double-count their child).
func (pr *profile) statsFor(n *plan.Node) *opStats {
	switch n.Op {
	case plan.OpSerialize, plan.OpPathScan, plan.OpPartitionedScan,
		plan.OpNavigate, plan.OpSelect, plan.OpProject, plan.OpGather,
		plan.OpCount, plan.OpSequence, plan.OpCtor, plan.OpCall,
		plan.OpFor, plan.OpLet, plan.OpWhere, plan.OpNLJoin,
		plan.OpHashJoin, plan.OpOrderBy:
		st := pr.ops[n]
		if st == nil {
			st = &opStats{}
			pr.ops[n] = st
		}
		return st
	}
	return nil
}

// profIter times and counts an item pipeline operator. It forwards the
// single-use iterator contract unchanged: one false, never pulled again.
type profIter struct {
	in Iterator
	st *opStats
}

func (p *profIter) Next() (Item, bool) {
	start := time.Now()
	v, ok := p.in.Next()
	p.st.ns += int64(time.Since(start))
	p.st.nexts++
	if ok {
		p.st.rows++
	}
	return v, ok
}

// profBatch times and counts a vector pipeline operator. Producer-owned
// buffer semantics pass through untouched — the wrapper never retains a
// returned vector.
type profBatch struct {
	in batchIterator
	st *opStats
}

func (p *profBatch) nextBatch() []tree.NodeID {
	start := time.Now()
	ids := p.in.nextBatch()
	p.st.ns += int64(time.Since(start))
	if ids != nil {
		p.st.batches++
		p.st.ids += int64(len(ids))
	}
	return ids
}

// profTuple times and counts a FLWOR tuple operator.
type profTuple struct {
	in tupleIter
	st *opStats
}

func (p *profTuple) Next() (*bindings, bool) {
	start := time.Now()
	tp, ok := p.in.Next()
	p.st.ns += int64(time.Since(start))
	if ok {
		p.st.tuples++
	}
	return tp, ok
}

// annotate renders one node's counters as the EXPLAIN ANALYZE line suffix,
// or "" for nodes that recorded nothing.
func (pr *profile) annotate(n *plan.Node) string {
	st := pr.ops[n]
	gs := pr.gathers[n]
	if (st == nil || *st == (opStats{})) && gs == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("  {")
	first := true
	add := func(format string, args ...any) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, format, args...)
	}
	if st != nil {
		if st.nexts > 0 || st.rows > 0 {
			add("rows=%d", st.rows)
			add("next=%d", st.nexts)
		}
		if st.batches > 0 {
			add("batches=%d", st.batches)
			add("ids=%d", st.ids)
		}
		if st.tuples > 0 {
			add("tuples=%d", st.tuples)
		}
		if sel, ok := pr.survival(n, st); ok {
			add("sel=%.1f%%", sel)
		}
		add("time=%s", fmtNs(st.ns))
	}
	if gs != nil {
		add("fanout=%d", len(gs.parts))
		rows := make([]string, len(gs.parts))
		times := make([]string, len(gs.parts))
		var maxNs, sumNs int64
		for i, p := range gs.parts {
			rows[i] = fmt.Sprintf("%d", p.rows)
			times[i] = fmtNs(p.ns)
			sumNs += p.ns
			if p.ns > maxNs {
				maxNs = p.ns
			}
		}
		add("morsel rows=[%s]", strings.Join(rows, " "))
		add("morsel time=[%s]", strings.Join(times, " "))
		if sumNs > 0 {
			mean := float64(sumNs) / float64(len(gs.parts))
			add("skew=%.2f", float64(maxNs)/mean)
		}
	}
	b.WriteString("}")
	return b.String()
}

// survival computes a Select/Where operator's survival rate: output over
// the input operator's output, on whichever stream (ids, rows, tuples) both
// sides recorded. This is the selection-vector survival rate for
// vectorized selects.
func (pr *profile) survival(n *plan.Node, st *opStats) (float64, bool) {
	if n.Op != plan.OpSelect && n.Op != plan.OpWhere {
		return 0, false
	}
	if n.Input == nil {
		return 0, false
	}
	in := pr.ops[n.Input]
	if in == nil {
		return 0, false
	}
	switch {
	case st.ids > 0 || (st.batches > 0 && in.ids > 0):
		if in.ids == 0 {
			return 0, false
		}
		return 100 * float64(st.ids) / float64(in.ids), true
	case st.tuples > 0 || in.tuples > 0:
		if in.tuples == 0 {
			return 0, false
		}
		return 100 * float64(st.tuples) / float64(in.tuples), true
	case in.rows > 0:
		return 100 * float64(st.rows) / float64(in.rows), true
	}
	return 0, false
}

func fmtNs(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}

// Analysis is the outcome of one instrumented execution: the EXPLAIN tree
// annotated with runtime counters, plus a flat hottest-first breakdown for
// callers that aggregate across queries.
type Analysis struct {
	// Report is the annotated EXPLAIN tree: the plan rendering with a
	// {rows=…, time=…} counter block appended to every operator that ran.
	Report string
	// Exec is the wall time of the instrumented execution.
	Exec time.Duration `json:"exec_ns"`
	// Ops is the per-operator breakdown, hottest (inclusive time) first.
	Ops []OpBreakdown `json:"ops"`
}

// OpBreakdown is one operator's counters under its EXPLAIN label.
type OpBreakdown struct {
	Op      string `json:"op"`
	Rows    int64  `json:"rows,omitempty"`
	Nexts   int64  `json:"nexts,omitempty"`
	Batches int64  `json:"batches,omitempty"`
	IDs     int64  `json:"ids,omitempty"`
	Tuples  int64  `json:"tuples,omitempty"`
	Ns      int64  `json:"ns"`
}

// analysis renders the collected counters against the plan.
func (pr *profile) analysis(pl *plan.Plan) Analysis {
	var ops []OpBreakdown
	for n, st := range pr.ops {
		if *st == (opStats{}) {
			continue
		}
		ops = append(ops, OpBreakdown{
			Op:      plan.NodeLabel(n),
			Rows:    st.rows,
			Nexts:   st.nexts,
			Batches: st.batches,
			IDs:     st.ids,
			Tuples:  st.tuples,
			Ns:      st.ns,
		})
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Ns != ops[j].Ns {
			return ops[i].Ns > ops[j].Ns
		}
		if ops[i].Op != ops[j].Op {
			return ops[i].Op < ops[j].Op
		}
		return ops[i].Rows > ops[j].Rows
	})
	return Analysis{Report: pl.ExplainAnnotated(pr.annotate), Ops: ops}
}

// ExplainAnalyze executes the prepared query with per-operator
// instrumentation, writing the serialized result to w, and returns the
// annotated report. The serialized output is byte-identical to
// SerializeSession: the wrappers observe the pipeline, they never change
// it.
func (p *Prepared) ExplainAnalyze(w io.Writer, sess *Session) (Analysis, error) {
	prof := newProfile()
	start := time.Now()
	err := p.execute(sess, prof, func(ev *evaluator, it Iterator) error {
		return ev.serializeResult(w, p.plan.Root, it)
	})
	exec := time.Since(start)
	if err != nil {
		return Analysis{}, err
	}
	a := prof.analysis(p.plan)
	a.Exec = exec
	a.Report += fmt.Sprintf("analyze: exec %s\n", fmtNs(int64(exec)))
	return a, nil
}
