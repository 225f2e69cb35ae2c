package engine

import (
	"sort"

	"repro/internal/plan"
	"repro/internal/tree"
)

// This file is the physical side of the planner's fulltext-pushdown rule.
// An IndexProbe (and a step carrying FT probes) narrows its node stream to
// the inverted index's candidate set by ordered-set membership — the
// candidates are ascending NodeIDs, so membership is a binary search — and
// the original predicates downstream re-verify every survivor. The filter
// only ever removes nodes, and only nodes the index proved cannot match,
// so execution with the index is byte-identical to the scan; when the
// store declines the probe at run time the stream passes through
// unchanged. Filtering instead of emitting the candidate set directly
// keeps partition morsels, shard territories and batch buffers exactly as
// the upstream operators produced them.

// ftMember reports whether id is in the ascending candidate vector.
func ftMember(ids []tree.NodeID, id tree.NodeID) bool {
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	return i < len(ids) && ids[i] == id
}

// ftKeep compacts ids in place to the candidate members, returning the
// surviving length.
func ftKeep(ids []tree.NodeID, cand []tree.NodeID) int {
	w := 0
	for _, id := range ids {
		if ftMember(cand, id) {
			ids[w] = id
			w++
		}
	}
	return w
}

// stepFT answers a step's full-text probe against the store, declining
// for steps without probes and stores without an index.
func (ev *evaluator) stepFT(sp *plan.StepPlan) ([]tree.NodeID, bool) {
	if len(sp.FT) == 0 {
		return nil, false
	}
	return ev.store.TextCandidates(sp.Name, sp.FT)
}

// iterIndexProbe builds the item pipeline of an OpIndexProbe.
func (ev *evaluator) iterIndexProbe(n *plan.Node, env *bindings) Iterator {
	if bi := ev.batchOf(n, env); bi != nil {
		return &fromBatchIter{in: bi}
	}
	in := ev.iter(n.Input, env)
	ids, ok := ev.store.TextCandidates(n.Tag, n.FT)
	if !ok {
		return in
	}
	return &ftFilterIter{in: in, ids: ids}
}

// ftFilterIter drops stored nodes outside the candidate set. Non-node
// items pass through: they carry no NodeID to probe, and passing them is
// the safe superset direction.
type ftFilterIter struct {
	in  Iterator
	ids []tree.NodeID
}

func (f *ftFilterIter) Next() (Item, bool) {
	for {
		v, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		if n, isNode := v.(NodeItem); !isNode || ftMember(f.ids, n.ID) {
			return v, true
		}
	}
}

// batchFTIter compacts each input batch to the candidate members in
// place, looping past batches that empty out — batch iterators must
// return non-empty vectors or nil.
type batchFTIter struct {
	in  batchIterator
	ids []tree.NodeID
}

func (b *batchFTIter) nextBatch() []tree.NodeID {
	for {
		ids := b.in.nextBatch()
		if ids == nil {
			return nil
		}
		if w := ftKeep(ids, b.ids); w > 0 {
			return ids[:w]
		}
	}
}
