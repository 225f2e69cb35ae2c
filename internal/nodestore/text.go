package nodestore

import (
	"time"

	"repro/internal/tree"
)

// TextProbe is one contains() condition the planner pushed into a
// full-text index probe: the needle of the original predicate plus the
// element chain (below the scanned tag) that enclosed the haystack
// expression. A nil Sub means the whole subtree of the scanned element is
// the haystack (string($i) or a descendant-step haystack); a non-nil Sub
// names the predicate-free child chain ($i/description → ["description"]).
type TextProbe struct {
	Sub    []string
	Needle string
}

// TextIndexInfo is the size and build accounting a full-text index
// reports, surfaced through /healthz and /stats so drivers can poll the
// second slow phase of a load.
type TextIndexInfo struct {
	// Terms is the number of distinct dictionary terms.
	Terms int
	// Postings is the total number of (term, text-node) postings.
	Postings int
	// Bytes estimates the resident size of the index.
	Bytes int64
	// BuildTime is the wall time of the index construction.
	BuildTime time.Duration
}

// TextIndex is the contract a full-text index implementation satisfies
// (the concrete type lives in internal/fulltext; nodestore only names the
// capability so the stores need not import it).
//
// Candidates returns the ascending, duplicate-free NodeIDs of the
// tag-labeled elements that MAY satisfy every probe: a superset of the
// true matches, never a subset — the caller re-verifies each candidate
// with the original predicate, which is what keeps pushed-down plans
// byte-identical. ok is false when the index cannot guarantee a superset
// (a needle with no indexable token run) and the caller must scan.
type TextIndex interface {
	Candidates(tag string, probes []TextProbe) ([]tree.NodeID, bool)
	Info() TextIndexInfo
}

// TextSearcher is the method group of Store the fulltext-pushdown rule
// probes: contains() candidate pre-filters answered from an inverted index
// over the store's text nodes.
type TextSearcher interface {
	// TextCandidates answers like TextIndex.Candidates; ok is false when
	// no index is attached or the index declines the probe.
	TextCandidates(tag string, probes []TextProbe) ([]tree.NodeID, bool)
	// TextIndexInfo reports the attached index's size accounting; ok is
	// false when no index is attached.
	TextIndexInfo() (TextIndexInfo, bool)
}

// TextIndexHolder is the embeddable implementation of TextSearcher and
// Store.AttachTextIndex: stores embed it and the loader attaches an index
// after bulkload. A store without an attached index declines every probe
// with ok=false and the engine scans.
type TextIndexHolder struct {
	textIdx TextIndex
}

// AttachTextIndex installs the index. Attachment happens once, at load
// time, before the store is published to concurrent readers.
func (h *TextIndexHolder) AttachTextIndex(idx TextIndex) { h.textIdx = idx }

// TextIndex returns the attached index, nil when none is. Stores built
// from one document may share one index.
func (h *TextIndexHolder) TextIndex() TextIndex { return h.textIdx }

// TextCandidates implements TextSearcher.
func (h *TextIndexHolder) TextCandidates(tag string, probes []TextProbe) ([]tree.NodeID, bool) {
	if h.textIdx == nil {
		return nil, false
	}
	return h.textIdx.Candidates(tag, probes)
}

// TextIndexInfo implements TextSearcher.
func (h *TextIndexHolder) TextIndexInfo() (TextIndexInfo, bool) {
	if h.textIdx == nil {
		return TextIndexInfo{}, false
	}
	return h.textIdx.Info(), true
}
