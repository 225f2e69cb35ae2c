package engine

import (
	"fmt"
	"io"
	"time"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/xquery"
)

// Options select the optimizations of a system architecture. The type
// lives in package plan — the planner's rewrite rules consume it — and is
// aliased here so engine callers keep their historical spelling.
type Options = plan.Options

// Engine evaluates queries against one store.
type Engine struct {
	store nodestore.Store
	opts  Options
}

// New returns an Engine over store with the given optimization profile.
func New(store nodestore.Store, opts Options) *Engine {
	return &Engine{store: store, opts: opts}
}

// Store returns the engine's store.
func (e *Engine) Store() nodestore.Store { return e.store }

// Options returns the engine's optimization profile.
func (e *Engine) Options() Options { return e.opts }

// Prepared is a compiled query: parse → static checks → plan → optimize.
// Compilation covers parsing, static resolution of functions and
// variables, logical planning with metadata access (catalog probes for
// absolute paths, count shortcuts, pushdown capabilities), and the rewrite
// rule pipeline, matching the paper's "compilation" phase of Table 2.
// Execution builds a pull-based iterator pipeline over the optimized plan;
// Run materializes it, while Stream and Serialize consume it item by item
// without holding the whole result.
//
// A Prepared is immutable after Prepare returns and can be executed any
// number of times, including concurrently from multiple goroutines: every
// execution builds a fresh pipeline, and all mutable evaluation scratch
// lives in a per-execution (or caller-supplied per-worker) Session.
//
// An execution whose Session carries a parallelism budget (Session.Degree
// above one) may additionally fan the plan's partitioned scans out across
// that many morsel workers; output is guaranteed byte-identical to
// sequential execution at every degree.
type Prepared struct {
	engine *Engine
	query  *xquery.Query
	// plan is the optimized logical plan; published once here, read-only
	// during execution.
	plan *plan.Plan
	// CompileTime is the wall time spent in Prepare.
	CompileTime time.Duration
	// MetaProbes counts catalog consultations during compilation.
	MetaProbes int
	// Diagnostics are compile-time warnings about provably empty path
	// expressions (typos), produced when the store's catalog can check
	// them; see the paper's §7 proposal for online path validation.
	Diagnostics []string
}

// Prepare compiles src: parse, static checks, logical planning, and the
// optimizer's rewrite pipeline over the plan.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	start := time.Now()
	q, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	p := &Prepared{engine: e, query: q}
	if err := p.check(); err != nil {
		return nil, err
	}
	p.plan = plan.Compile(q, e.opts, e.store)
	p.plan.Optimize(e.opts, e.store)
	p.MetaProbes = p.plan.Probes
	p.diagnose()
	p.CompileTime = time.Since(start)
	return p, nil
}

// Explain renders the optimized plan tree with the rewrite rules that
// fired: the output behind `xquery -explain` and the service's /explain
// endpoint.
func (p *Prepared) Explain() string { return p.plan.Explain() }

// Plan returns the optimized logical plan.
func (p *Prepared) Plan() *plan.Plan { return p.plan }

// Run executes the prepared query and materializes the result sequence.
func (p *Prepared) Run() (result Seq, err error) {
	err = p.execute(nil, nil, func(_ *evaluator, it Iterator) error {
		result = materialize(it)
		return nil
	})
	if err != nil {
		result = nil
	}
	return result, err
}

// Stream executes the prepared query, passing result items to fn as the
// pipeline produces them. When fn returns false the run stops early and
// the remainder of the result is never computed — the pipeline's
// early-termination property.
func (p *Prepared) Stream(fn func(Item) bool) error {
	return p.StreamSession(nil, fn)
}

// StreamSession is Stream with a caller-owned Session holding the
// execution's mutable scratch (recycled iterators, memoized join build
// sides). A worker goroutine that executes prepared queries repeatedly
// passes its own Session to keep that scratch warm across executions; the
// Session must not be shared between goroutines. A nil sess behaves like
// Stream.
func (p *Prepared) StreamSession(sess *Session, fn func(Item) bool) error {
	return p.execute(sess, nil, func(_ *evaluator, it Iterator) error {
		for {
			v, ok := it.Next()
			if !ok {
				return nil
			}
			if !fn(v) {
				return nil
			}
		}
	})
}

// Serialize executes the prepared query and writes the serialized result
// to w item by item through an ItemWriter, interleaving evaluation with
// output instead of materializing the result sequence first.
func (p *Prepared) Serialize(w io.Writer) error {
	return p.SerializeSession(w, nil)
}

// SerializeSession is Serialize with a caller-owned Session. Besides the
// warm evaluation scratch, the Session carries the execution's intra-query
// parallelism budget (Session.Degree): a degree above one lets the plan's
// Gather operators fan partitioned scans out across workers, with output
// guaranteed byte-identical to sequential execution. Every execution
// serializes through the one ItemWriter, so output is byte-identical at
// every batch size.
func (p *Prepared) SerializeSession(w io.Writer, sess *Session) error {
	return p.execute(sess, nil, func(ev *evaluator, it Iterator) error {
		return ev.serializeResult(w, p.plan.Root, it)
	})
}

// execute builds a fresh pipeline for the optimized plan and hands it to
// consume, converting evaluation panics into error returns. The evaluator
// reads the immutable plan through the Prepared and keeps all mutable
// scratch in the Session, so concurrent executions of one Prepared never
// share writable state. A non-nil prof installs the EXPLAIN ANALYZE
// counter wrappers (Prepared.ExplainAnalyze); every other execution
// passes nil and runs uninstrumented.
func (p *Prepared) execute(sess *Session, prof *profile, consume func(*evaluator, Iterator) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ee, ok := r.(*evalError); ok {
				err = ee
				return
			}
			panic(r)
		}
	}()
	if sess == nil {
		sess = NewSession()
	}
	// A comparison an error unwound never popped its operands.
	sess.atoms = sess.atoms[:0]
	ev := &evaluator{
		store:     p.engine.store,
		opts:      p.engine.opts,
		funcs:     p.plan.Funcs,
		sess:      sess,
		degree:    sess.Degree,
		batchSize: resolveBatchSize(sess.BatchSize, p.engine.opts.BatchSize),
		prof:      prof,
	}
	// Registered after the recover defer, so it runs first during panic
	// unwinding: partition workers never outlive their execution, whether
	// it finished, errored, or the consumer stopped pulling mid-stream.
	defer ev.stopGathers()
	return consume(ev, ev.iter(p.plan.Root, &bindings{}))
}

// resolveBatchSize picks one execution's vector width: the Session
// override when set, else the engine Options, else the nodestore default.
// Anything at or below 1 means strict tuple-at-a-time execution.
func resolveBatchSize(sess, opts int) int {
	switch {
	case sess != 0:
		return sess
	case opts != 0:
		return opts
	default:
		return nodestore.DefaultBatchSize
	}
}

// Query compiles and runs src in one call.
func (e *Engine) Query(src string) (Seq, error) {
	p, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// check performs static analysis: every variable reference must be bound
// and every called function must exist.
func (p *Prepared) check() error {
	var walkErr error
	builtin := builtinNames()
	var walk func(e xquery.Expr, bound map[string]bool)
	walkAll := func(es []xquery.Expr, bound map[string]bool) {
		for _, e := range es {
			if e != nil {
				walk(e, bound)
			}
		}
	}
	walk = func(e xquery.Expr, bound map[string]bool) {
		if walkErr != nil || e == nil {
			return
		}
		switch v := e.(type) {
		case *xquery.VarRef:
			if !bound[v.Name] {
				walkErr = fmt.Errorf("engine: unbound variable $%s", v.Name)
			}
		case *xquery.Path:
			walk(v.Input, bound)
			for _, st := range v.Steps {
				walkAll(st.Preds, bound)
			}
		case *xquery.Filter:
			walk(v.Input, bound)
			walkAll(v.Preds, bound)
		case *xquery.FLWOR:
			inner := copyBound(bound)
			for _, cl := range v.Clauses {
				if cl.For != nil {
					walk(cl.For.Seq, inner)
					inner[cl.For.Var] = true
				} else {
					walk(cl.Let.Seq, inner)
					inner[cl.Let.Var] = true
				}
			}
			if v.Where != nil {
				walk(v.Where, inner)
			}
			for _, o := range v.Order {
				walk(o.Key, inner)
			}
			walk(v.Return, inner)
		case *xquery.Quantified:
			inner := copyBound(bound)
			for i, name := range v.Vars {
				walk(v.Seqs[i], inner)
				inner[name] = true
			}
			walk(v.Satisfies, inner)
		case *xquery.IfExpr:
			walk(v.Cond, bound)
			walk(v.Then, bound)
			walk(v.Else, bound)
		case *xquery.Binary:
			walk(v.Left, bound)
			walk(v.Right, bound)
		case *xquery.Unary:
			walk(v.Operand, bound)
		case *xquery.Call:
			if _, user := p.query.Functions[v.Name]; !user && !builtin[v.Name] {
				walkErr = fmt.Errorf("engine: unknown function %s()", v.Name)
			}
			if user := p.query.Functions[v.Name]; user != nil && len(user.Params) != len(v.Args) {
				walkErr = fmt.Errorf("engine: %s() expects %d arguments, got %d", v.Name, len(user.Params), len(v.Args))
			}
			walkAll(v.Args, bound)
		case *xquery.Sequence:
			walkAll(v.Items, bound)
		case *xquery.ElementCtor:
			for _, a := range v.Attrs {
				walkAll(a.Parts, bound)
			}
			walkAll(v.Content, bound)
		}
	}
	for _, fd := range p.query.Functions {
		bound := map[string]bool{}
		for _, param := range fd.Params {
			bound[param] = true
		}
		walk(fd.Body, bound)
	}
	walk(p.query.Body, map[string]bool{})
	return walkErr
}

func copyBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// pathPrefix returns the longest leading run of predicate-free child steps
// of an absolute path: the part a path catalog can answer directly (used
// by the compile-time diagnostics; the planner has its own step-level
// equivalent).
func pathPrefix(p *xquery.Path) []string {
	var prefix []string
	for _, st := range p.Steps {
		if st.Axis != xquery.AxisChild || st.Name == "*" || st.Name == "" || len(st.Preds) > 0 {
			break
		}
		prefix = append(prefix, st.Name)
	}
	return prefix
}
