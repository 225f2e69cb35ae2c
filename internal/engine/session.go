package engine

import "repro/internal/tree"

// Session is the per-worker mutable evaluation scratch: free lists and the
// atom stack, plus the execution's Degree and BatchSize. A Session
// is NOT safe for concurrent use, but it may be reused across any number
// of sequential executions of any Prepared queries: nothing on it depends
// on the store or the plan (join build sides live on the Prepared, see
// memo). Reuse keeps the free lists' grown buffers warm. Executions
// without a Session (Prepared.Run, Stream, Serialize) allocate a fresh one
// each time, which is what makes a shared Prepared trivially safe to
// execute from many goroutines.
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
}

// NewSession returns an empty Session for one worker goroutine.
func NewSession() *Session { return &Session{} }

// Reset does nothing: a Session carries no per-request state, since join
// build sides live on the Prepared. It stays so callers that reset a
// Session between requests keep compiling. The free lists are never
// cleared: their warmth is the point of keeping a Session.
func (s *Session) Reset() {}

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
