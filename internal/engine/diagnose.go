package engine

import (
	"fmt"
	"strings"

	"repro/internal/xquery"
)

// Diagnostics are compile-time warnings about path expressions that can be
// proven empty against the loaded database instance.
//
// The paper's closing observation (§7) proposes exactly this feature: "if
// a query processor was able to validate path expressions online, i.e.,
// tell the user whether a given sequence of tags actually exists in the
// database instance, it would often be of great help to users as quite
// regularly, simple typos in path names often evaluate to empty results...
// it could well issue a warning if a path expression contains non-existing
// tags." Stores with a path catalog (the fragmenting mappings and the
// structural summary) answer these checks for free at compile time; stores
// without one produce no diagnostics, which is the paper's point.
func (p *Prepared) diagnose() {
	store := p.engine.store
	seenTag := map[string]bool{}
	warn := func(format string, args ...interface{}) {
		p.Diagnostics = append(p.Diagnostics, fmt.Sprintf(format, args...))
	}

	checkTag := func(tag string) {
		if tag == "" || tag == "*" || seenTag[tag] {
			return
		}
		seenTag[tag] = true
		if n, ok := store.TagCard(tag); ok && n == 0 {
			warn("tag <%s> occurs nowhere in the database instance", tag)
		}
	}

	checkAbsolute := func(path *xquery.Path) {
		if !p.engine.opts.PathExtents {
			return
		}
		prefix := pathPrefix(path)
		for i := 1; i <= len(prefix); i++ {
			n, ok := store.PathCard(prefix[:i])
			if !ok {
				return
			}
			if n == 0 {
				warn("path /%s is empty: no <%s> at this position",
					strings.Join(prefix[:i], "/"), prefix[i-1])
				return
			}
		}
	}

	p.walk(func(e xquery.Expr, _ *xquery.Scope) bool {
		path, ok := e.(*xquery.Path)
		if !ok {
			return true
		}
		if _, isRoot := path.Input.(*xquery.Root); isRoot {
			checkAbsolute(path)
		}
		for _, st := range path.Steps {
			if st.Axis == xquery.AxisChild || st.Axis == xquery.AxisDescendant {
				checkTag(st.Name)
			}
		}
		return true
	})
}
