// Package plan is the logical query plan layer between the parser and the
// evaluator.
//
// Compile lowers a parsed query into a tree of logical operators (PathScan,
// Navigate, Select, Project, For/Let, NestedLoopJoin/HashJoin, OrderBy,
// Count, Serialize, plus expression nodes that mirror the AST); Optimize
// then runs a pipeline of rewrite rules over it — path-step fusion onto the
// store's path catalog, attribute-index lookups, DTD-inlining text fusion,
// predicate pushdown into nodestore filtered cursors, catalog count
// shortcuts, join detection with hash upgrade, and order-by elimination.
// Which rules fire depends on the engine Options of the system architecture
// under test and on what the loaded store's catalog can answer, so the same
// query compiles to visibly different plans on the paper's Systems A–G;
// Explain renders the tree with the fired rules for the -explain CLI flag
// and the /explain service endpoint.
//
// The engine's evaluator consumes this IR directly: it is a physical
// operator builder over plan.Node and makes no optimization decisions of
// its own.
package plan

import (
	"repro/internal/nodestore"
	"repro/internal/xquery"
)

// Options select the optimizations of a system architecture. All false is
// the paper's embedded System G profile (plus NaiveStrings for its
// materialization overhead); the mass-storage systems enable the subsets
// their architectures support. The planner consumes Options to decide
// which rewrite rules may fire; the evaluator only consults NaiveStrings
// (a run-time materialization behavior, not a plan shape).
type Options struct {
	// PathExtents answers absolute path prefixes from the store's path
	// catalog (fragmented mappings B/C and the summary of D).
	PathExtents bool
	// CountShortcut answers count() over pure paths from the catalog
	// without data access (System D's structural summary).
	CountShortcut bool
	// HashJoins accelerates equality value joins in FLWOR expressions
	// with a hash table instead of a nested loop.
	HashJoins bool
	// Inlining reads single #PCDATA children from inlined columns
	// (System C's DTD-derived mapping).
	Inlining bool
	// AttrIndexes answers [@attr = "literal"] predicates from the store's
	// attribute value index instead of scanning the candidate set: the
	// "index lookup" flavor of Q1 the paper contrasts with a table scan.
	AttrIndexes bool
	// NaiveStrings copies every string value touched, the embedded
	// processor's materialization overhead (System G).
	NaiveStrings bool
	// MaxDegree caps the morsel-style intra-query parallelism of the
	// parallelize rule: splittable scans may fan out into at most this
	// many partitioned sub-pipelines, recombined by an ordered gather.
	// 0 or 1 keeps every plan sequential. The plan records the cap; the
	// actual degree of one execution is the session's parallelism budget
	// clamped to it.
	MaxDegree int
	// FulltextIndex lets the fulltext-pushdown rule rewrite contains()
	// selections into inverted-index candidate probes when the store
	// has a full-text index attached (TextCandidates answers ok). Probed
	// candidates only pre-filter; the original predicate always
	// re-verifies, so the option changes plans, never results.
	FulltextIndex bool
	// BatchSize selects the vector width of batch-at-a-time execution:
	// the vectorize rule marks batchable scan→step→select prefixes and
	// the evaluator runs them over NodeID vectors of this many ids.
	// 0 means the engine default (nodestore.DefaultBatchSize); 1 disables
	// vectorization entirely (strict tuple-at-a-time, the pre-batch
	// engine); an execution may override the width — but not re-enable a
	// disabled rule — through its Session.
	BatchSize int
}

// Op enumerates the logical operators of the plan IR.
type Op int

// Logical operators. The first group produces item sequences, the second
// group (OpTupleSrc through OpOrderBy) produces FLWOR tuple streams, and
// the rest mirror scalar expression forms of the AST.
const (
	// OpSerialize is the plan root: serialize the Input sequence.
	OpSerialize Op = iota
	// OpPathScan scans the extent of an absolute label path from the
	// store's path catalog, optionally restricted by pushed-down Filters.
	OpPathScan
	// OpNavigate applies the step chain Steps to the Input sequence.
	OpNavigate
	// OpSelect filters the Input sequence by Preds with positional
	// predicate semantics (the Filter expression).
	OpSelect
	// OpProject maps the Ret expression over the tuple chain Input: the
	// FLWOR return clause.
	OpProject
	// OpPartitionedScan is a splittable scan leaf: a tag extent (Tag set)
	// or a path extent (Path set, optionally with pushed-down Filters)
	// whose store access path can be range-split into disjoint
	// document-order morsels. Sequentially it behaves exactly like the
	// scan it replaced.
	OpPartitionedScan
	// OpGather runs its Input sub-pipeline once per partition of the
	// Scan leaf inside it — at most Degree partitions, each on its own
	// worker — and recombines the partial results by ordered
	// concatenation, which is the NodeID merge because partition ranges
	// are totally ordered in document order.
	OpGather
	// OpIndexProbe narrows its Input sequence to the full-text index's
	// candidate set for the FT probes over Tag elements: a membership
	// pre-filter, never an answer — the predicates that produced the
	// probes remain downstream and re-verify every candidate. When the
	// store declines the probe at run time the operator passes its input
	// through unchanged.
	OpIndexProbe

	// OpTupleSrc is the single initial FLWOR tuple.
	OpTupleSrc
	// OpFor expands each tuple of Input with one binding of Var per item
	// of Seq.
	OpFor
	// OpLet extends each tuple of Input with Var bound to all of Seq.
	OpLet
	// OpNLJoin is OpFor fused with the equality conjunct Cond, evaluated
	// as a filter immediately after binding: a nested-loop value join.
	OpNLJoin
	// OpHashJoin is OpNLJoin upgraded to probe a hash index over Seq
	// (built once from the Probe keys, probed per tuple with Build keys).
	OpHashJoin
	// OpWhere drops tuples whose Cond is false.
	OpWhere
	// OpOrderBy materializes and stable-sorts the tuple stream by Keys.
	OpOrderBy

	// OpCount is count() with a planner-chosen strategy (CountMode).
	OpCount
	// OpLiteral, OpVar, OpContext and OpRoot are the leaf expressions.
	OpLiteral
	OpVar
	OpContext
	OpRoot
	// OpQuantified, OpIf, OpBinary, OpUnary, OpCall, OpSequence and
	// OpCtor mirror the remaining AST forms; their operands are plan
	// nodes so rewrites reach into every subexpression.
	OpQuantified
	OpIf
	OpBinary
	OpUnary
	OpCall
	OpSequence
	OpCtor
)

var opNames = map[Op]string{
	OpSerialize: "Serialize", OpPathScan: "PathScan", OpNavigate: "Navigate",
	OpSelect: "Select", OpProject: "Project",
	OpPartitionedScan: "PartitionedScan", OpGather: "Gather",
	OpIndexProbe: "IndexProbe",
	OpTupleSrc:   "TupleSrc",
	OpFor:        "For", OpLet: "Let", OpNLJoin: "NestedLoopJoin",
	OpHashJoin: "HashJoin", OpWhere: "Select", OpOrderBy: "OrderBy",
	OpCount: "Count", OpLiteral: "Literal", OpVar: "Var",
	OpContext: "Context", OpRoot: "Root", OpQuantified: "Quantified",
	OpIf: "If", OpBinary: "Op", OpUnary: "Neg", OpCall: "Call",
	OpSequence: "Sequence", OpCtor: "Element",
}

// String returns the operator's display name.
func (op Op) String() string { return opNames[op] }

// CountMode is the strategy of one OpCount node.
type CountMode int

// Count strategies.
const (
	// CountDrain drains the argument stream and counts items.
	CountDrain CountMode = iota
	// CountCatalogPath answers the count from the store's path catalog
	// without data access (CountPath).
	CountCatalogPath
	// CountCatalogDesc iterates the truncated context path CountCtx and
	// sums CountDescendants(ctx, CountTag) from the catalog.
	CountCatalogDesc
	// CountMatches reads the match count a count-only let (CountOnly)
	// bound in place of its join's match sequence. When the engine bound
	// the sequence after all (batch size 1), the count drains it.
	CountMatches
)

// StepStrategy is the chosen physical strategy of one path step.
type StepStrategy int

// Step strategies.
const (
	// StepNavigate evaluates the step by store navigation.
	StepNavigate StepStrategy = iota
	// StepInlineText answers a fused child/text() pair from the store's
	// inlined #PCDATA columns (System C), falling back to navigation for
	// fragments without the column.
	StepInlineText
	// StepAttrIndex answers the step's [@attr = "literal"] predicate from
	// the store's attribute value index, falling back to navigation when
	// the context is not a sorted stored-node run.
	StepAttrIndex
)

// StepPlan is one path step with its planned strategy: the axis and name
// test from the AST, the compiled predicates that remain for the engine,
// and — after rewrites — pushed-down filters or an index strategy.
type StepPlan struct {
	Axis xquery.Axis
	Name string
	// Preds are the predicates the engine evaluates, in order, after any
	// pushed-down prefix.
	Preds []*Node
	// Strategy selects the physical step operator.
	Strategy StepStrategy
	// IdxAttr/IdxValue are the attribute-index probe of StepAttrIndex.
	IdxAttr, IdxValue string
	// Filters are the predicates pushed into the store cursor, with
	// Pushed holding their original plan nodes for contexts the store
	// cannot filter (constructed elements, the document node).
	Filters []nodestore.ValueFilter
	Pushed  []*Node
	// FT are full-text index probes covering a leading prefix of Preds:
	// the step's candidate set intersects with the index answer before
	// the predicates run. The probed predicates stay in Preds and
	// re-verify every survivor.
	FT []nodestore.TextProbe
}

// AllPreds returns the step's full predicate list in source order — the
// pushed-down prefix followed by the engine-evaluated rest — for fallback
// contexts the store cannot filter (constructed elements, the document
// node).
func (sp *StepPlan) AllPreds() []*Node {
	if len(sp.Pushed) == 0 {
		return sp.Preds
	}
	return append(append([]*Node{}, sp.Pushed...), sp.Preds...)
}

// OrderKey is one "order by" key of an OpOrderBy node.
type OrderKey struct {
	Key        *Node
	Descending bool
}

// Node is one logical plan operator. The field layout is op-specific (see
// the Op constants); Expr points back at the originating AST expression,
// and Rules lists the rewrite rules that fired at this node.
type Node struct {
	Op    Op
	Expr  xquery.Expr
	Rules []string

	// Input is the operator's sequence or tuple input (Navigate, Select,
	// Serialize, Project and every tuple operator).
	Input *Node
	// Kids are generic sub-expression plans: Binary left/right, If
	// cond/then/else, call arguments, sequence items, quantifier ranges,
	// the count argument, the unary operand.
	Kids []*Node

	// Path is the catalog path of OpPathScan and OpPartitionedScan (and
	// CountCatalogPath).
	Path []string
	// Tag is the tag extent of an OpPartitionedScan tag scan ("" for
	// path scans).
	Tag string
	// Filters restrict an OpPathScan or OpPartitionedScan to rows
	// satisfying pushed-down predicates.
	Filters []nodestore.ValueFilter
	// FT are the full-text probes of OpIndexProbe (Tag names the probed
	// element extent).
	FT []nodestore.TextProbe
	// Degree is the maximum parallel degree of OpGather (the system
	// profile's MaxDegree at plan time); Scan aliases the
	// OpPartitionedScan leaf inside its Input subtree.
	Degree int
	Scan   *Node
	// Steps is the step chain of OpNavigate.
	Steps []*StepPlan
	// Preds are the predicates of OpSelect.
	Preds []*Node

	// Var is the bound variable of For/Let/joins, or the referenced name
	// of OpVar.
	Var string
	// Seq is the clause sequence of For/Let/joins.
	Seq *Node
	// Cond is the condition of OpWhere and the consumed equality conjunct
	// of joins; for OpQuantified it is the satisfies expression.
	Cond *Node
	// Probe and Build are the two sides of a join conjunct: Probe depends
	// only on the clause variable (it keys the index build), Build is
	// evaluated per outer tuple to probe it. Both alias Cond's children.
	Probe, Build *Node
	// Keys are the sort keys of OpOrderBy.
	Keys []OrderKey
	// Ret is the return expression of OpProject.
	Ret *Node

	// CountMode, CountTag and CountCtx configure OpCount; Kids[0] remains
	// the full argument plan as the drain fallback.
	CountMode CountMode
	CountTag  string
	CountCtx  *Node

	// CtorAttrs and Content are the attribute value parts and content
	// parts of OpCtor, parallel to the AST constructor.
	CtorAttrs [][]*Node
	Content   []*Node

	// UsesLast marks predicate nodes that may consult last(): the filter
	// operators materialize their input to know the context size.
	UsesLast bool
	// BoolShaped marks expressions that always evaluate to one boolean,
	// enabling the evaluator's allocation-free boolean fast path and
	// letting predicates skip positional-value handling.
	BoolShaped bool

	// Vectorized marks nodes the vectorize rule proved batchable: scans
	// (OpPathScan, OpPartitionedScan) whose cursors fill NodeID vectors,
	// OpSelect nodes whose predicates are rank-independent so they
	// evaluate over whole batches with a selection vector, OpFor clauses
	// whose sequence batches (the binding loop consumes NodeID vectors
	// directly), and joins (OpHashJoin, OpNLJoin) whose scanned side
	// batches (the index builds from vectors and probes without
	// per-tuple iterator chains). The evaluator builds batch operators
	// for marked nodes and falls back to the item iterators everywhere
	// else.
	Vectorized bool
	// NumKeys marks a vectorized OpNLJoin whose key side (Probe) is
	// statically numeric — arithmetic, count(), number() and the like — so
	// every key the index build sees is a number. The engine then keeps the
	// keys as a float vector with a sorted copy and answers a comparison by
	// binary search; EXPLAIN renders the join as BatchSortJoin [keys=num].
	NumKeys bool
	// CountOnly marks an OpLet over a vectorized join whose every use is
	// count($v) (the count-join rule): the engine binds the number of join
	// matches per tuple instead of materializing the match sequence, and
	// the counting OpCount nodes run in CountMatches mode.
	CountOnly bool
	// BuildCard is the cardinality catalog's size estimate for a
	// vectorized join's indexed (scanned) side; 0 when the catalog
	// cannot answer. The engine pre-sizes the join index with it and
	// EXPLAIN renders it as [build=N].
	BuildCard int
	// BatchSteps is the number of leading steps of an OpNavigate the
	// batch pipeline may run vector-at-a-time (per-context child/text
	// expansion into the output vector); the remaining steps run through
	// the item-iterator fallback behind a batch→item adapter.
	BatchSteps int
}

// FuncPlan is one compiled user function declaration.
type FuncPlan struct {
	Name   string
	Params []string
	Body   *Node
}

// Plan is a compiled query: the operator tree plus compiled user function
// bodies and the planning metadata the engine reports.
type Plan struct {
	// Root is the OpSerialize node over the query body.
	Root *Node
	// Funcs are the compiled user functions; FuncNames is sorted for
	// deterministic traversal and explanation.
	Funcs     map[string]*FuncPlan
	FuncNames []string
	// Probes counts catalog consultations during planning (the paper's
	// compile-time metadata access, Table 2).
	Probes int
	// Fired lists rule firings in application order.
	Fired []string
}

// fire records one rule firing at node n.
func (p *Plan) fire(name string, n *Node) {
	n.Rules = append(n.Rules, name)
	p.Fired = append(p.Fired, name)
}

// walk visits every node of the plan exactly once in a deterministic
// order: function bodies (sorted by name) first, then the root tree.
func (p *Plan) walk(visit func(*Node)) {
	seen := make(map[*Node]bool)
	for _, name := range p.FuncNames {
		walkNode(p.Funcs[name].Body, seen, visit)
	}
	walkNode(p.Root, seen, visit)
}

func walkNode(n *Node, seen map[*Node]bool, visit func(*Node)) {
	if n == nil || seen[n] {
		return
	}
	seen[n] = true
	visit(n)
	walkNode(n.Input, seen, visit)
	for _, k := range n.Kids {
		walkNode(k, seen, visit)
	}
	for _, sp := range n.Steps {
		for _, pr := range sp.Preds {
			walkNode(pr, seen, visit)
		}
		for _, pr := range sp.Pushed {
			walkNode(pr, seen, visit)
		}
	}
	for _, pr := range n.Preds {
		walkNode(pr, seen, visit)
	}
	walkNode(n.Seq, seen, visit)
	walkNode(n.Cond, seen, visit)
	for _, k := range n.Keys {
		walkNode(k.Key, seen, visit)
	}
	walkNode(n.Ret, seen, visit)
	walkNode(n.CountCtx, seen, visit)
	for _, parts := range n.CtorAttrs {
		for _, part := range parts {
			walkNode(part, seen, visit)
		}
	}
	for _, part := range n.Content {
		walkNode(part, seen, visit)
	}
}
