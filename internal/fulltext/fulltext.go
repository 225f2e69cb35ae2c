// Package fulltext is the inverted full-text index over a store's text
// nodes: the keyword-search-in-structured-data direction the benchmark's
// Q14 family stresses with contains() over item descriptions.
//
// The index is built once at load time by a single document-order walk:
// every text node tokenizes into maximal runs of token bytes, terms
// intern into dense codes in order of first sight (the same scheme the
// columnar stores' dictionaries use for their value columns), and each term
// carries an ascending posting vector of the text-node NodeIDs it
// overlaps. When the walk ends the postings are laid out in
// compressed-sparse-row form, one offsets array and one id array sized
// exactly, and a term's vector is a subslice of the ids. A per-tag
// ancestor-extent side table — sorted element starts with their subtree
// ends — resolves postings to enclosing elements (item, description) by
// binary search instead of tree walks.
//
// Probes are candidate pre-filters, never answers. Candidates(tag,
// probes) returns a superset of the elements whose probed region can
// contain each needle: every term whose spelling contains the needle's
// longest token run contributes its postings, the union merges in
// document order, and postings resolve upward through the extent table.
// The engine re-verifies every candidate with the original contains()
// predicate, which is what keeps index-on execution byte-identical to the
// scan. Soundness rests on one tokenizer invariant: tokens are MAXIMAL
// runs over the document-order concatenation of all text content (runs
// spanning adjacent text nodes post to every node they overlap), so any
// occurrence of the needle's longest run — in any subtree's string value,
// which is a contiguous slice of that concatenation — lies inside some
// indexed term and lights up a text node of that subtree.
package fulltext

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/nodestore"
	"repro/internal/tree"
)

// isTokenByte reports whether b can appear inside a token: ASCII letters
// and digits, plus every non-ASCII byte (multi-byte UTF-8 sequences stay
// whole runs, so a needle's UTF-8 bytes never split mid-character).
func isTokenByte(b byte) bool {
	return b >= 0x80 ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// Tokenize splits s into its maximal runs of token bytes, in order. The
// empty string (and any all-separator string) tokenizes to nothing.
func Tokenize(s string) []string {
	var out []string
	for i := 0; i < len(s); {
		if !isTokenByte(s[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(s) && isTokenByte(s[j]) {
			j++
		}
		out = append(out, s[i:j])
		i = j
	}
	return out
}

// LongestRun returns the longest maximal token run of s: the substring a
// probe matches against the term dictionary. Empty when s contains no
// token byte — such a needle cannot be pre-filtered and the index
// declines the probe.
func LongestRun(s string) string {
	best := ""
	for i := 0; i < len(s); {
		if !isTokenByte(s[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(s) && isTokenByte(s[j]) {
			j++
		}
		if j-i > len(best) {
			best = s[i:j]
		}
		i = j
	}
	return best
}

// tagExtent is the ancestor-extent side table of one element tag: starts
// are the tag's element NodeIDs in document order (a NodeID is its
// pre-order rank, so an element's ID is the start of its extent) and ends
// the matching subtree ends. nested marks tags whose extents can contain
// each other (parlist in parlist); binary search then cannot name every
// enclosing element and resolution walks parents instead.
type tagExtent struct {
	starts []tree.NodeID
	ends   []tree.NodeID
	nested bool
}

// cacheBudget bounds the candidate cache's bytes: its keys come from query
// text, so unbounded it would keep every needle a server was ever sent.
// The benchmark's keyword pool (about 200 probes of at most 9 KB at
// factor 0.1) stays well inside it. cacheEntryOverhead approximates one
// entry's map slot and slice header.
const (
	cacheBudget        = 8 << 20
	cacheEntryOverhead = 64
)

// Index is the built inverted index of a document's text nodes. All fields
// are read-only after Build; the candidate cache has its own lock, so
// concurrent sessions, partition workers and every store sharing the index
// probe safely.
type Index struct {
	store nodestore.Store
	// terms[code] is a term's spelling and ids[off[code]:off[code+1]] its
	// ascending, deduplicated text-node posting vector. Probes scan the
	// spellings, so no spelling-to-code map outlives the build.
	terms []string
	off   []int32
	ids   []tree.NodeID
	tags  map[string]*tagExtent

	nPostings int
	bytes     int64
	buildTime time.Duration

	mu         sync.RWMutex
	cache      map[string][]tree.NodeID
	cacheBytes int64 // key and vector bytes held by cache
	budget     int64 // cacheBudget, lowered by tests
}

// Build constructs the index over every text node of the store in one
// pre-order walk using only the Store interface, so the same builder
// serves the DOM stores and both relational mappings (and each shard of a
// split document indexes exactly its own territory).
func Build(store nodestore.Store) *Index {
	start := time.Now()
	b := &builder{
		store: store,
		idx: &Index{
			store:  store,
			tags:   make(map[string]*tagExtent),
			cache:  make(map[string][]tree.NodeID),
			budget: cacheBudget,
		},
		open:  make(map[string]int),
		codes: make(map[string]int32),
	}
	b.walk(store.Root(), 0)
	b.flush()
	b.postings()
	idx := b.idx
	idx.terms = exact(idx.terms)
	for _, te := range idx.tags {
		te.starts, te.ends = exact(te.starts), exact(te.ends)
	}
	idx.buildTime = time.Since(start)
	idx.nPostings = len(idx.ids)
	idx.bytes = int64(len(idx.terms))*16 + int64(len(idx.off))*4 + int64(len(idx.ids))*4
	for _, t := range idx.terms {
		idx.bytes += int64(len(t))
	}
	for tag, te := range idx.tags {
		idx.bytes += int64(len(tag)) + int64(len(te.starts))*8 + 64
	}
	return idx
}

// exact copies v into a slice of capacity len(v): the walk's append slack
// is not kept.
func exact[E any](v []E) []E {
	return append(make([]E, 0, len(v)), v...)
}

// postings lays the walk's (term, node) pairs out in CSR form: a count per
// term, a prefix sum into off, and a stable fill that keeps each term's
// ids in the ascending order the walk posted them.
func (b *builder) postings() {
	idx := b.idx
	idx.off = make([]int32, len(idx.terms)+1)
	for _, p := range b.pairs {
		idx.off[p.term+1]++
	}
	for t := 1; t < len(idx.off); t++ {
		idx.off[t] += idx.off[t-1]
	}
	idx.ids = make([]tree.NodeID, len(b.pairs))
	next := slices.Clone(idx.off[:len(idx.off)-1]) // each term's fill cursor
	for _, p := range b.pairs {
		idx.ids[next[p.term]] = p.id
		next[p.term]++
	}
}

// postingsOf returns the posting vector of one term, capped so an append
// cannot reach the next term's ids.
func (x *Index) postingsOf(code int32) []tree.NodeID {
	lo, hi := x.off[code], x.off[code+1]
	return x.ids[lo:hi:hi]
}

// builder is the transient walk state of Build.
type builder struct {
	store nodestore.Store
	idx   *Index
	bufs  [][]tree.NodeID // per-depth child scratch
	open  map[string]int  // per-tag open element count (nesting detection)

	// carry is the token run currently straddling text-node boundaries:
	// its bytes so far and every text node it overlaps. StringValue
	// concatenates text content with no separators, so a run ending at one
	// text node's last byte may continue in the next text node of the
	// document; the completed token posts to every overlapped node.
	carry      []byte
	carryNodes []tree.NodeID

	// codes interns term spellings; pairs holds every posting in walk
	// order until the walk ends; last is the newest node posted per term,
	// which deduplicates a term's postings as they arrive.
	codes map[string]int32
	pairs []posting
	last  []tree.NodeID
}

// posting is one (term code, text node) pair of the build.
type posting struct {
	term int32
	id   tree.NodeID
}

func (b *builder) walk(id tree.NodeID, depth int) {
	s := b.store
	tag := s.Tag(id)
	te := b.idx.tags[tag]
	if te == nil {
		te = &tagExtent{}
		b.idx.tags[tag] = te
	}
	if b.open[tag] > 0 {
		te.nested = true
	}
	te.starts = append(te.starts, id)
	te.ends = append(te.ends, s.SubtreeEnd(id))
	b.open[tag]++

	if depth >= len(b.bufs) {
		b.bufs = append(b.bufs, nil)
	}
	b.bufs[depth] = s.Children(id, b.bufs[depth][:0])
	kids := b.bufs[depth]
	for _, c := range kids {
		if s.Kind(c) == tree.Text {
			b.text(c, s.Text(c))
		} else {
			b.walk(c, depth+1)
		}
	}
	b.open[tag]--
}

// text tokenizes one text node's content, continuing a carried run when
// the node begins where the previous one's run left off.
func (b *builder) text(id tree.NodeID, s string) {
	for i := 0; i < len(s); {
		if !isTokenByte(s[i]) {
			b.flush()
			i++
			continue
		}
		j := i + 1
		for j < len(s) && isTokenByte(s[j]) {
			j++
		}
		if i > 0 || len(b.carry) == 0 {
			// A run not at byte 0 can never extend the carry.
			b.flush()
		}
		b.carry = append(b.carry, s[i:j]...)
		b.carryNodes = append(b.carryNodes, id)
		if j < len(s) {
			// The run ended inside this node: the token is complete.
			b.flush()
		}
		i = j
	}
	// A run reaching the end of the node keeps carrying into the next
	// text node; empty or separator-terminated content flushed above.
}

// flush posts the carried token to every text node it overlaps.
func (b *builder) flush() {
	if len(b.carry) == 0 {
		return
	}
	code, ok := b.codes[string(b.carry)]
	if !ok {
		code = int32(len(b.idx.terms))
		term := string(b.carry)
		b.codes[term] = code
		b.idx.terms = append(b.idx.terms, term)
		b.last = append(b.last, tree.Nil)
	}
	for _, id := range b.carryNodes {
		if b.last[code] != id {
			b.last[code] = id
			b.pairs = append(b.pairs, posting{code, id})
		}
	}
	b.carry = b.carry[:0]
	b.carryNodes = b.carryNodes[:0]
}

// Info implements nodestore.TextIndex.
func (x *Index) Info() nodestore.TextIndexInfo {
	return nodestore.TextIndexInfo{
		Terms:     len(x.terms),
		Postings:  x.nPostings,
		Bytes:     x.bytes,
		BuildTime: x.buildTime,
	}
}

// Candidates implements nodestore.TextIndex: the ascending, deduplicated
// NodeIDs of the tag elements that may satisfy every probe. ok is false
// when no probe carries an indexable token run — contains() over a pure
// separator needle matches through byte positions the tokenizer cannot
// see, so the caller must scan.
func (x *Index) Candidates(tag string, probes []nodestore.TextProbe) ([]tree.NodeID, bool) {
	var result []tree.NodeID
	first, owned := true, false
	for _, p := range probes {
		if LongestRun(p.Needle) == "" {
			// No indexable run: this probe admits everything, which is the
			// identity under intersection — skip it. (An all-separator
			// needle still verifies in the engine.)
			continue
		}
		cand := x.probe(tag, p)
		if first {
			result, first = cand, false
		} else {
			// intersect compacts into its first argument, and result may
			// still be a shared cached vector that concurrent sessions are
			// reading — copy once before the first in-place intersection.
			if !owned {
				result = append([]tree.NodeID(nil), result...)
				owned = true
			}
			result = intersect(result, cand)
		}
		if len(result) == 0 {
			break
		}
	}
	if first {
		return nil, false
	}
	// Single-probe answers return the cached vector itself: callers must
	// treat the result as read-only.
	return result, true
}

// probe answers one cached (tag, probe) candidate set.
func (x *Index) probe(tag string, p nodestore.TextProbe) []tree.NodeID {
	key := tag + "\x00" + strings.Join(p.Sub, "\x00") + "\x01" + p.Needle
	x.mu.RLock()
	cand, ok := x.cache[key]
	x.mu.RUnlock()
	if ok {
		return cand
	}
	cand = x.resolve(tag, p)
	size := int64(len(key)) + int64(cap(cand))*4 + cacheEntryOverhead
	x.mu.Lock()
	if _, dup := x.cache[key]; !dup && size <= x.budget {
		if x.cacheBytes+size > x.budget {
			// Clearing is cheaper to reason about than an eviction order:
			// a vector handed out earlier stays valid, and the hot probes
			// refill the cache on their next miss.
			x.cache = make(map[string][]tree.NodeID)
			x.cacheBytes = 0
		}
		x.cache[key] = cand
		x.cacheBytes += size
	}
	x.mu.Unlock()
	return cand
}

// resolve computes one probe's candidate elements: substring-match the
// needle's longest run against the term dictionary, union the matching
// postings in document order, then resolve each posted text node upward
// to the enclosing tag elements through the probe's Sub chain.
func (x *Index) resolve(tag string, p nodestore.TextProbe) []tree.NodeID {
	if x.tags[tag] == nil {
		return nil
	}
	run := LongestRun(p.Needle)
	var texts []tree.NodeID
	for c, term := range x.terms {
		if strings.Contains(term, run) {
			texts = append(texts, x.postingsOf(int32(c))...)
		}
	}
	texts = sortDedup(texts)

	var out, chain []tree.NodeID
	s := x.store
	if len(p.Sub) == 0 {
		for _, t := range texts {
			chain = x.enclosing(t, tag, chain[:0])
			out = append(out, chain...)
		}
		return sortDedup(out)
	}
	last := p.Sub[len(p.Sub)-1]
	for _, t := range texts {
		chain = x.enclosing(t, last, chain[:0])
		for _, e := range chain {
			// Verify the parent chain e ← sub[...] ← tag upward; the chain
			// has the probe's fixed length, so this is O(len(Sub)), not a
			// tree walk.
			a := e
			ok := true
			for i := len(p.Sub) - 2; i >= 0; i-- {
				a = s.Parent(a)
				if a == tree.Nil || s.Tag(a) != p.Sub[i] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if anc := s.Parent(a); anc != tree.Nil && s.Tag(anc) == tag {
				out = append(out, anc)
			}
		}
	}
	return sortDedup(out)
}

// enclosing appends the tag-labeled elements whose extent contains node t.
// Non-nesting tags answer by binary search on the extent table (at most
// one hit); nesting tags fall back to the parent chain, where every
// same-tag ancestor qualifies.
func (x *Index) enclosing(t tree.NodeID, tag string, out []tree.NodeID) []tree.NodeID {
	te := x.tags[tag]
	if te == nil {
		return out
	}
	if !te.nested {
		i := sort.Search(len(te.starts), func(i int) bool { return te.starts[i] > t }) - 1
		if i >= 0 && te.ends[i] > t {
			out = append(out, te.starts[i])
		}
		return out
	}
	for a := x.store.Parent(t); a != tree.Nil; a = x.store.Parent(a) {
		if x.store.Tag(a) == tag {
			out = append(out, a)
		}
	}
	return out
}

// sortDedup sorts ids ascending and removes duplicates in place.
func sortDedup(ids []tree.NodeID) []tree.NodeID {
	if len(ids) < 2 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w := 1
	for _, id := range ids[1:] {
		if id != ids[w-1] {
			ids[w] = id
			w++
		}
	}
	return ids[:w]
}

// intersect merges two ascending id vectors, keeping ids present in both.
func intersect(a, b []tree.NodeID) []tree.NodeID {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
