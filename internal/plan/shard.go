package plan

import (
	"repro/internal/xquery"
)

// This file holds the shardability analysis of the scatter-gather
// coordinator (internal/shard): the static check that decides whether a
// query evaluated independently on N disjoint document shards recombines
// into the unsharded answer, and under which merge operator. It mirrors
// the structure of ruleParallelize — both prove that per-partition
// execution plus ordered recombination preserves sequence semantics —
// but works on the AST rather than the lowered plan, because the
// decision is about *document* decomposition, not access paths: every
// shard runs an ordinary plan over its own (complete, smaller) document.
//
// The document model behind the proof: shards are built from contiguous
// runs of split files, so every shard document carries an identical copy
// of the envelope (the <site> skeleton of sections and region elements)
// while each top-level entity (item, category, person, auction, catgraph
// edge) lives in exactly one shard, and shard order equals document
// order. A query is shardable when every part of it either reads only
// the replicated envelope, or reads data reachable from a single entity
// — never across entities, never by global position, never by a second
// absolute path.

// ShardMerge is how the per-shard results of a shardable query recombine
// into the unsharded result.
type ShardMerge int

const (
	// ShardNone marks a query the analysis cannot decompose; the
	// coordinator serves it from the unsharded global replica.
	ShardNone ShardMerge = iota
	// ShardConcat recombines by concatenation in shard (= document)
	// order: the query maps each entity independently, so the unsharded
	// result is the ordered concatenation of the per-shard results.
	ShardConcat
	// ShardSum recombines by element-wise numeric addition: the query
	// counts entity-owned nodes (possibly in a linear combination), so
	// each position of the result is the sum of the shards' values.
	ShardSum
)

// String names the merge mode for EXPLAIN output and status endpoints.
func (m ShardMerge) String() string {
	switch m {
	case ShardConcat:
		return "concat"
	case ShardSum:
		return "sum"
	}
	return "none"
}

// ShardSchema tells the analysis which element tags form the replicated
// document envelope. Everything below a non-envelope child of an
// envelope element belongs to exactly one shard. Entity subtrees must
// never reuse envelope tag names, which holds for the XMark vocabulary.
type ShardSchema struct {
	Envelope map[string]bool
}

// ShardableQuery classifies a parsed query for scatter-gather execution
// over document shards. The analysis is conservative: ShardConcat and
// ShardSum are only reported when per-shard evaluation provably
// recombines into the unsharded result; anything it cannot prove —
// order by, global sorts, positional access to whole-document
// sequences, a second absolute path inside a per-entity body,
// distinct-values across entities, top-level constructors — falls back
// to ShardNone.
func ShardableQuery(q *xquery.Query, schema ShardSchema) ShardMerge {
	if q == nil || q.Body == nil || schema.Envelope == nil {
		return ShardNone
	}
	a := &shardAnalyzer{
		env:   schema.Envelope,
		funcs: q.Functions,
		safe:  map[string]bool{},
	}
	// count(additive sequence) at the top level sums across shards.
	if c, ok := q.Body.(*xquery.Call); ok && a.countCall(c) != nil {
		if a.additive(a.countCall(c), nil) {
			return ShardSum
		}
		return ShardNone
	}
	// A FLWOR over envelope nodes whose return is a linear combination
	// of additive counts (Q6, Q7): the envelope bindings are identical
	// in every shard, so each shard emits the same number of values and
	// the merge is element-wise addition.
	if f, ok := q.Body.(*xquery.FLWOR); ok && a.sumFLWOR(f) {
		return ShardSum
	}
	if a.seqDecomposes(q.Body) {
		return ShardConcat
	}
	return ShardNone
}

// shardAnalyzer carries the envelope schema, the query's user functions,
// and the memoized per-function locality results.
type shardAnalyzer struct {
	env   map[string]bool
	funcs map[string]*xquery.FuncDecl
	safe  map[string]bool
}

func (a *shardAnalyzer) isUser(name string) bool {
	_, ok := a.funcs[name]
	return ok
}

// countCall recognizes the builtin count over one argument and returns
// that argument (nil otherwise).
func (a *shardAnalyzer) countCall(c *xquery.Call) xquery.Expr {
	if c.Name == "count" && !a.isUser(c.Name) && len(c.Args) == 1 {
		return c.Args[0]
	}
	return nil
}

// seqDecomposes reports whether the sequence e computes decomposes into
// the ordered concatenation of its per-shard evaluations.
func (a *shardAnalyzer) seqDecomposes(e xquery.Expr) bool {
	switch v := e.(type) {
	case *xquery.Path:
		input, steps := flattenPath(e)
		if _, isRoot := input.(*xquery.Root); !isRoot {
			return false
		}
		return a.crossingSteps(steps)
	case *xquery.Filter:
		// A filter over the whole sequence sees the global focus: its
		// predicates must be provably non-positional (the seqSafePred
		// condition of the parallelize rule) and shard-local.
		for _, p := range v.Preds {
			if !a.crossPredOK(p) {
				return false
			}
		}
		return a.seqDecomposes(v.Input)
	case *xquery.FLWOR:
		return a.concatFLWOR(v)
	}
	return false
}

// concatFLWOR reports whether the FLWOR decomposes by concatenation:
// no order by, exactly one scatter axis (the first for clause, which
// must be an absolute crossing path), and every other clause, the where
// condition, and the return expression shard-local.
func (a *shardAnalyzer) concatFLWOR(f *xquery.FLWOR) bool {
	if len(f.Order) != 0 {
		return false
	}
	crossed := false
	for _, cl := range f.Clauses {
		if !crossed && cl.For != nil {
			// The scatter axis: each shard iterates its own entities.
			input, steps := flattenPath(cl.For.Seq)
			if _, isRoot := input.(*xquery.Root); !isRoot {
				return false
			}
			if !a.crossingSteps(steps) {
				return false
			}
			crossed = true
			continue
		}
		if !a.local(clauseSeq(cl)) {
			return false
		}
	}
	if !crossed {
		return false
	}
	if f.Where != nil && !a.local(f.Where) {
		return false
	}
	return a.local(f.Return)
}

// sumFLWOR recognizes the summable FLWOR shape: every clause is a for
// over a pure envelope path (so each shard binds the same replicated
// nodes, in the same order, producing equal-length results), no where
// or order by, and the return is a linear +-combination of counts over
// additive sequences rooted at the document or the envelope variables.
func (a *shardAnalyzer) sumFLWOR(f *xquery.FLWOR) bool {
	if len(f.Order) != 0 || f.Where != nil || len(f.Clauses) == 0 {
		return false
	}
	envVars := map[string]bool{}
	for _, cl := range f.Clauses {
		if cl.For == nil || !a.envelopePath(cl.For.Seq) {
			return false
		}
		envVars[cl.For.Var] = true
	}
	return a.sumLinear(f.Return, envVars)
}

// sumLinear matches count(additive) possibly combined with +.
func (a *shardAnalyzer) sumLinear(e xquery.Expr, envVars map[string]bool) bool {
	switch v := e.(type) {
	case *xquery.Binary:
		return v.Op == xquery.OpAdd &&
			a.sumLinear(v.Left, envVars) && a.sumLinear(v.Right, envVars)
	case *xquery.Call:
		if arg := a.countCall(v); arg != nil {
			return a.additive(arg, envVars)
		}
	}
	return false
}

// additive reports whether the cardinality of e over the whole document
// equals the sum of its per-shard cardinalities: every counted node is
// owned by exactly one shard. envVars are variables bound to replicated
// envelope nodes; paths may start from them or from the root.
func (a *shardAnalyzer) additive(e xquery.Expr, envVars map[string]bool) bool {
	switch e.(type) {
	case *xquery.Path:
		input, steps := flattenPath(e)
		switch in := input.(type) {
		case *xquery.Root:
			return a.crossingSteps(steps)
		case *xquery.VarRef:
			return envVars[in.Name] && a.crossingSteps(steps)
		}
		return false
	case *xquery.FLWOR, *xquery.Filter:
		// count of a concatenation-decomposable sequence is additive.
		return a.seqDecomposes(e)
	}
	return false
}

// envelopePath matches an absolute path that never leaves the envelope:
// child/descendant steps over envelope tags with no predicates. Every
// shard binds identical (replicated) nodes from it.
func (a *shardAnalyzer) envelopePath(e xquery.Expr) bool {
	input, steps := flattenPath(e)
	if _, isRoot := input.(*xquery.Root); !isRoot || len(steps) == 0 {
		return false
	}
	for _, st := range steps {
		if st.Axis != xquery.AxisChild && st.Axis != xquery.AxisDescendant {
			return false
		}
		if !a.env[st.Name] || len(st.Preds) != 0 {
			return false
		}
	}
	return true
}

// crossingSteps walks an absolute step chain and proves it crosses from
// the replicated envelope into entity territory exactly once, safely:
//
//   - While inside the envelope, only predicate-free child/descendant
//     steps over envelope tags are allowed — envelope nodes are
//     replicated in every shard, and a predicate or wildcard there
//     could observe shard-local structure.
//   - The crossing step (the first non-envelope name) selects nodes
//     owned by exactly one shard each; its predicates run in a focus
//     of entity siblings, which is shard-local data in global document
//     order, so they must be boolean-shaped and free of last() and
//     position() — the exact seqSafePred condition of the parallelize
//     rule — and must not re-enter the document absolutely.
//   - Below the crossing the focus is inside one entity subtree; any
//     downward step and predicate is safe as long as it stays local
//     (no absolute paths, which would read shard-dependent data).
//
// A chain that never leaves the envelope does not decompose (its nodes
// are replicated, concatenation would duplicate them) and is rejected.
func (a *shardAnalyzer) crossingSteps(steps []*xquery.Step) bool {
	inEnvelope := true
	for _, st := range steps {
		if !inEnvelope {
			for _, p := range st.Preds {
				if !a.local(p) {
					return false
				}
			}
			continue
		}
		if st.Axis != xquery.AxisChild && st.Axis != xquery.AxisDescendant {
			return false
		}
		if st.Name == "" || st.Name == "*" {
			return false
		}
		if a.env[st.Name] {
			if len(st.Preds) != 0 {
				return false
			}
			continue
		}
		for _, p := range st.Preds {
			if !a.crossPredOK(p) {
				return false
			}
		}
		inEnvelope = false
	}
	return !inEnvelope
}

// crossPredOK is the predicate condition at the crossing step: provably
// non-positional (boolean-shaped, no last(), no position()) and
// shard-local.
func (a *shardAnalyzer) crossPredOK(p xquery.Expr) bool {
	return boolShaped(p, a.funcs) &&
		!usesLastExpr(p, a.funcs) &&
		!xquery.UsesFocusCall(p, a.isUser, "position") &&
		a.local(p)
}

// local reports whether e reads only data reachable from its free
// variables and context — no absolute paths (Root re-enters the whole
// document, whose content differs per shard) and no calls to user
// functions whose bodies are not themselves local. Everything else,
// including nested FLWORs, quantifiers, and constructors, is permitted:
// evaluated against one entity's subtree it yields the same value on
// the entity's shard as on the unsharded document.
func (a *shardAnalyzer) local(e xquery.Expr) bool {
	ok := true
	xquery.Walk(e, nil, func(e xquery.Expr, _ *xquery.Scope) bool {
		if !ok {
			return false
		}
		switch v := e.(type) {
		case *xquery.Root:
			ok = false
		case *xquery.Call:
			ok = !a.isUser(v.Name) || a.funcLocal(v.Name)
		}
		return ok
	})
	return ok
}

// clauseSeq returns the bound sequence of a for or let clause.
func clauseSeq(cl xquery.Clause) xquery.Expr {
	if cl.For != nil {
		return cl.For.Seq
	}
	return cl.Let.Seq
}

// funcLocal memoizes whether a user function's body is shard-local.
// Recursive cycles resolve to false (conservative).
func (a *shardAnalyzer) funcLocal(name string) bool {
	if v, ok := a.safe[name]; ok {
		return v
	}
	a.safe[name] = false
	f := a.funcs[name]
	if f == nil {
		return false
	}
	a.safe[name] = a.local(f.Body)
	return a.safe[name]
}
