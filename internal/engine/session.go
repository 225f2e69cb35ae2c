package engine

import (
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tree"
)

// Session is the per-worker mutable evaluation state: the recycled
// iterator free lists and the memoized hash-join build sides. A Session is
// NOT safe for concurrent use — it is the part of the evaluator that must
// never cross goroutines — but it may be reused across any number of
// sequential executions, and across different Prepared queries: the join
// cache is keyed by plan-node identity, and every Prepared owns its own
// optimized plan, so entries from different queries (or the same query
// compiled for different stores) can never collide.
//
// Reusing a Session keeps the free lists' grown buffers warm and makes
// hash-join build sides (which depend only on the store and the plan)
// build once per worker instead of once per execution — the steady-state
// win for a server executing the same prepared queries over and over.
// Executions without a Session (Prepared.Run, Stream, Serialize) allocate
// a fresh one each time, which is what makes a shared Prepared trivially
// safe to execute from many goroutines.
type Session struct {
	// Degree is the execution's intra-query parallelism budget: the
	// maximum number of partition workers a Gather operator may fan out
	// to, further clamped by the plan's own MaxDegree. 0 or 1 executes
	// every plan sequentially (the default), so parallelism is strictly
	// opt-in per execution; a service executor typically grants each
	// request a degree from a shared pool before running it.
	Degree int

	// BatchSize sets the vector width of batch-at-a-time execution for
	// runs under this Session: 0 means nodestore.DefaultBatchSize, 1
	// forces strict tuple-at-a-time execution (the benchmark baseline),
	// and any larger value runs the plan's vectorized prefixes at that
	// width. Output is byte-identical at every width.
	BatchSize int

	// Trace, when non-nil, is the request span under which executions on
	// this Session record their internal fan-out: each Gather adds a
	// "gather" child with one timed "morsel i" span per partition worker.
	// Nil (the default) records nothing. A service executor sets it per
	// request and clears it afterwards, since Sessions outlive requests.
	Trace *obs.Span

	// stepFree, inlineFree and varFree recycle iterators (with
	// their grown buffers) once they are exhausted or dropped by a
	// consumer that stopped early: per-tuple paths in FLWOR return and
	// where clauses re-evaluate constantly, and reuse keeps the operators
	// themselves out of the steady state's allocations.
	stepFree   []*stepIter
	inlineFree []*inlineTextIter
	varFree    []*varIter
	// atoms is the stack of materialized comparison operands: a general
	// comparison without a literal side pushes its right operand's atoms,
	// compares, and pops them, so nested comparisons share one buffer.
	atoms []atom
	// batchFree recycles the NodeID vectors of exhausted batch operators,
	// so steady-state vectorized execution allocates no batch buffers.
	batchFree [][]tree.NodeID
	// joinCache memoizes hash-join indexes keyed by the join's plan node,
	// so correlated inner FLWORs (Q10) build the index once per session.
	joinCache map[*plan.Node]*joinIndex
	// thetaCache memoizes the inner items and key values of planned
	// non-equality joins (Q11/Q12), keyed like joinCache.
	thetaCache map[*plan.Node]*thetaIndex
	// attrCache memoizes the value-index candidates of attribute-index
	// steps, keyed by the step: a step under a FLWOR probes per tuple.
	attrCache map[*plan.StepPlan][]tree.NodeID
}

// NewSession returns an empty Session for one worker goroutine.
func NewSession() *Session { return &Session{} }

// Reset drops the session's memoized join state: the hash-join and
// theta-join caches, whose entries retain materialized build sides (and,
// through them, whole item sequences) for the life of the worker, and
// the attribute-index candidates. A
// service executor calls it between requests so one request's joins are
// never pinned while the worker sits idle — the retention policy is "for
// the duration of a request", not "for the life of the worker". The
// iterator and batch-buffer free lists survive a Reset: they are
// bounded, store-independent scratch whose warmth is the point of
// keeping a Session at all.
func (s *Session) Reset() {
	s.joinCache = nil
	s.thetaCache = nil
	s.attrCache = nil
	s.Trace = nil
}

// CachedJoins reports how many join indexes the session currently
// memoizes: what an execution leaves behind on it and Reset drops.
func (s *Session) CachedJoins() int { return len(s.joinCache) + len(s.thetaCache) }

// getBatchBuf takes a recycled NodeID vector of at least n capacity from
// the free list, or allocates a fresh one. The returned slice has length n.
func (s *Session) getBatchBuf(n int) []tree.NodeID {
	if k := len(s.batchFree); k > 0 {
		b := s.batchFree[k-1]
		s.batchFree = s.batchFree[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this execution's width (the session saw a smaller
		// batch size earlier); drop it and allocate at the new width.
	}
	return make([]tree.NodeID, n)
}

// putBatchBuf returns an exhausted batch operator's vector to the free
// list. Like the iterator free lists, recycling happens only at
// exhaustion, so a vector still visible downstream is never handed out
// twice.
func (s *Session) putBatchBuf(b []tree.NodeID) {
	if cap(b) == 0 {
		return
	}
	s.batchFree = append(s.batchFree, b)
}
