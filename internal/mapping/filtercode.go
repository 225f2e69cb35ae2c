package mapping

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/nodestore"
	"repro/internal/relational"
)

// codedFilter is a pushed-down ValueFilter compiled against one store
// dictionary: string equality and inequality become int code comparisons
// against the table's contiguous code column, and only ordered or numeric
// predicates (plus the survivors an equality admits) decode a string.
//
// The compilation is once per plan step (see filterMemo), so the
// dictionary probe for the literal happens once per step instead of once
// per context node or row; a literal absent from the dictionary equals no
// stored value, which short-circuits CmpEq to a constant false and CmpNeq
// to a constant true without touching the column at all.
type codedFilter struct {
	f       nodestore.ValueFilter
	code    int32 // dictionary code of f.Value, when hasCode
	hasCode bool
	byCode  bool // CmpEq/CmpNeq on a plain string: compare codes only
	// childSym and attrSym are the edge heap's symbols of f.Child and of
	// "@"+f.Attr, -1 when the document has none; other stores leave them
	// unset.
	childSym, attrSym int32
}

// filterMemo remembers the compiled form of the filter lists a store's
// filtered cursors are opened with. The planner's lists are immutable and
// live as long as their plan, so a list's address names one plan step,
// and a step's cursor per context node reuses one compilation. A hit is
// checked against a copy of the list, so a caller that reuses or rewrites
// a slice recompiles instead of reading a stale entry. The memo holds at
// most filterMemoCap lists and starts over when full, so a stream of
// ad-hoc plans cannot grow it.
type filterMemo struct {
	m sync.Map // filterKey -> *compiledFilters
	n atomic.Int32
}

// filterMemoCap bounds a filterMemo: far more pushed-down steps than the
// prepared plans of one catalog hold.
const filterMemoCap = 256

type filterKey struct {
	first *nodestore.ValueFilter
	n     int
}

type compiledFilters struct {
	fs  []nodestore.ValueFilter // the list as compiled
	cfs []codedFilter
}

// lookup returns the memoized compilation of fs, if any.
func (m *filterMemo) lookup(fs []nodestore.ValueFilter) ([]codedFilter, bool) {
	if len(fs) == 0 {
		return nil, true
	}
	v, ok := m.m.Load(filterKey{&fs[0], len(fs)})
	if !ok {
		return nil, false
	}
	c := v.(*compiledFilters)
	if !slices.Equal(c.fs, fs) {
		return nil, false
	}
	return c.cfs, true
}

// store memoizes cfs as the compilation of fs.
func (m *filterMemo) store(fs []nodestore.ValueFilter, cfs []codedFilter) {
	if len(fs) == 0 {
		return
	}
	if m.n.Add(1) > filterMemoCap {
		m.m.Range(func(k, _ any) bool {
			m.m.Delete(k)
			return true
		})
		m.n.Store(1)
	}
	m.m.Store(filterKey{&fs[0], len(fs)}, &compiledFilters{fs: slices.Clone(fs), cfs: cfs})
}

// compileFilters compiles fs against the dictionary of the store the
// cursor scans.
func compileFilters(d *relational.Dict, fs []nodestore.ValueFilter) []codedFilter {
	cfs := make([]codedFilter, len(fs))
	for i, f := range fs {
		cfs[i] = codedFilter{f: f}
		if !f.Numeric && (f.Op == nodestore.CmpEq || f.Op == nodestore.CmpNeq) {
			cfs[i].byCode = true
			cfs[i].code, cfs[i].hasCode = d.Code(f.Value)
		}
	}
	return cfs
}

// matchCode evaluates the filter against one dictionary code. Equality
// never decodes; everything else falls back to the exact ValueFilter
// semantics over the decoded string.
func (cf *codedFilter) matchCode(d *relational.Dict, c int32) bool {
	if cf.byCode {
		if cf.f.Op == nodestore.CmpEq {
			return cf.hasCode && c == cf.code
		}
		return !cf.hasCode || c != cf.code
	}
	return cf.f.Match(d.Name(c))
}
