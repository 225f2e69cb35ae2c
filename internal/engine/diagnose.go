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

	var walk func(e xquery.Expr)
	walkAll := func(es []xquery.Expr) {
		for _, e := range es {
			if e != nil {
				walk(e)
			}
		}
	}
	walk = func(e xquery.Expr) {
		switch v := e.(type) {
		case *xquery.Path:
			if _, isRoot := v.Input.(*xquery.Root); isRoot {
				checkAbsolute(v)
			} else {
				walk(v.Input)
			}
			for _, st := range v.Steps {
				if st.Axis == xquery.AxisChild || st.Axis == xquery.AxisDescendant {
					checkTag(st.Name)
				}
				walkAll(st.Preds)
			}
		case *xquery.Filter:
			walk(v.Input)
			walkAll(v.Preds)
		case *xquery.FLWOR:
			for _, cl := range v.Clauses {
				if cl.For != nil {
					walk(cl.For.Seq)
				} else {
					walk(cl.Let.Seq)
				}
			}
			if v.Where != nil {
				walk(v.Where)
			}
			for _, o := range v.Order {
				walk(o.Key)
			}
			walk(v.Return)
		case *xquery.Quantified:
			walkAll(v.Seqs)
			walk(v.Satisfies)
		case *xquery.IfExpr:
			walk(v.Cond)
			walk(v.Then)
			walk(v.Else)
		case *xquery.Binary:
			walk(v.Left)
			walk(v.Right)
		case *xquery.Unary:
			walk(v.Operand)
		case *xquery.Call:
			walkAll(v.Args)
		case *xquery.Sequence:
			walkAll(v.Items)
		case *xquery.ElementCtor:
			for _, a := range v.Attrs {
				walkAll(a.Parts)
			}
			walkAll(v.Content)
		}
	}
	for _, fd := range p.query.Functions {
		walk(fd.Body)
	}
	walk(p.query.Body)
}
