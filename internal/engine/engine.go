package engine

import (
	"fmt"
	"io"
	"slices"
	"sync"
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
// Run materializes it and Stream consumes it item by item without holding
// the whole result, while Serialize pushes the result's constructors
// straight into its writer.
//
// A Prepared can be executed any number of times, including concurrently
// from multiple goroutines: every execution builds a fresh pipeline, and
// all mutable evaluation scratch lives in a per-execution (or
// caller-supplied per-worker) Session. Executions add nothing to it but
// the memo of join build sides, which they share read-only.
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
	// memo holds the plan's join build sides, built on first use.
	memo memo
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
	err = p.execute(nil, &p.memo, nil, func(ev *evaluator, env *bindings) error {
		result = materialize(ev.iter(p.plan.Root, env))
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
// execution's mutable scratch (recycled iterators and batch buffers). A
// worker goroutine that executes prepared queries repeatedly
// passes its own Session to keep that scratch warm across executions; the
// Session must not be shared between goroutines. A nil sess behaves like
// Stream.
func (p *Prepared) StreamSession(sess *Session, fn func(Item) bool) error {
	return p.execute(sess, &p.memo, nil, func(ev *evaluator, env *bindings) error {
		it := ev.iter(p.plan.Root, env)
		for {
			r, ok := it.next()
			if !ok || !fn(r.box()) {
				return nil
			}
		}
	})
}

// Serialize executes the prepared query and writes the serialized result
// to w through an ItemWriter, interleaving evaluation with output instead
// of materializing the result sequence first.
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
	return p.SerializeTo(NewItemWriter(w, p.engine.store), sess)
}

// SerializeTo is SerializeSession into a caller-owned ItemWriter over this
// engine's store, whose LeadAtomic and TailAtomic then describe the
// result. The result is pushed into the writer (see ItemWriter): element
// constructors write their markup as they evaluate, with no constructed
// tree and no boxed item in between, and every result item is handed to
// the underlying writer as it completes. A write error ends the execution
// at the next result item and is returned.
func (p *Prepared) SerializeTo(iw *ItemWriter, sess *Session) error {
	return p.execute(sess, &p.memo, nil, func(ev *evaluator, env *bindings) error {
		ev.push(iw, p.plan.Root, env, true)
		return iw.Err()
	})
}

// execute sets up an evaluator for one run of the optimized plan and
// hands it, with the empty top-level environment, to consume, which pulls
// or pushes the plan's result; evaluation panics become error returns.
// The evaluator reads the immutable plan through the Prepared and keeps
// all mutable scratch in the Session, so concurrent executions of one
// Prepared share nothing writable but the memo m, the Prepared's own. A
// non-nil prof installs the EXPLAIN ANALYZE counter wrappers
// (Prepared.ExplainAnalyze, which passes a private memo so the analyzed
// run counts its own builds); every other execution passes nil and runs
// uninstrumented.
func (p *Prepared) execute(sess *Session, m *memo, prof *profile, consume func(*evaluator, *bindings) error) (err error) {
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
		memo:      m,
		sess:      sess,
		degree:    sess.Degree,
		batchSize: resolveBatchSize(sess.BatchSize),
		prof:      prof,
	}
	// Registered after the recover defer, so it runs first during panic
	// unwinding: partition workers never outlive their execution, whether
	// it finished, errored, or the consumer stopped pulling mid-stream.
	defer ev.stopGathers()
	return consume(ev, &bindings{})
}

// memo holds a plan's build sides — hash-join and theta-join indexes,
// attribute-index candidates — each a pure function of the sealed store
// and the plan, so every execution of the plan shares them. Entries are
// keyed by plan node (or step), one map per build form: a width-1 run
// builds and probes with the tuple code, a wider run with the batch code.
// While an entry is being built the map holds a chan struct{} that closes
// when the build ends.
type memo struct{ tuple, batch sync.Map }

// memoized returns the entry for at, building it on first use. A warm
// read is one lock-free Load. Cold callers are single-flight: the first
// builds outside any lock (a build may open a nested join) while the rest
// wait for it, and a build that panics publishes nothing, so the next
// caller builds afresh. A caller that is itself inside a build never
// waits: a recursive function's join can reach its own build side, so it
// builds a private copy instead, and no cycle of waits can form.
func memoized[T any](ev *evaluator, at any, batch bool, build func() T) T {
	m := &ev.memo.tuple
	if batch {
		m = &ev.memo.batch
	}
	for {
		if v, ok := m.Load(at); ok {
			done, building := v.(chan struct{})
			if !building {
				return v.(T)
			}
			if ev.building > 0 {
				return buildOn(ev, build)
			}
			<-done
			continue
		}
		done := make(chan struct{})
		if _, loaded := m.LoadOrStore(at, done); loaded {
			continue
		}
		// Deferred in this order, a panicked build removes its mark (a
		// no-op once the value is published) before waking the waiters.
		defer close(done)
		defer m.CompareAndDelete(at, done)
		built := buildOn(ev, build)
		m.Store(at, built)
		return built
	}
}

// buildOn runs a memo build on ev without its morsel cursor, so a morsel
// never builds an index over its partition alone.
func buildOn[T any](ev *evaluator, build func() T) T {
	part, partNode := ev.part, ev.partNode
	ev.part, ev.partNode = nil, nil
	ev.building++
	built := build()
	ev.building--
	ev.part, ev.partNode = part, partNode
	return built
}

// resolveBatchSize picks one execution's vector width: the Session's
// when set, else the nodestore default. Anything at or below 1 means
// strict tuple-at-a-time execution.
func resolveBatchSize(sess int) int {
	if sess != 0 {
		return sess
	}
	return nodestore.DefaultBatchSize
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
// and every called function must exist with a matching arity. The error
// names the first offence in walk order.
func (p *Prepared) check() error {
	var err error
	p.walk(func(e xquery.Expr, s *xquery.Scope) bool {
		if err != nil {
			return false
		}
		switch v := e.(type) {
		case *xquery.VarRef:
			if !s.Bound(v.Name) {
				err = fmt.Errorf("engine: unbound variable $%s", v.Name)
			}
		case *xquery.Call:
			if user := p.query.Functions[v.Name]; user == nil && !builtins[v.Name] {
				err = fmt.Errorf("engine: unknown function %s()", v.Name)
			} else if user != nil && len(user.Params) != len(v.Args) {
				err = fmt.Errorf("engine: %s() expects %d arguments, got %d", v.Name, len(user.Params), len(v.Args))
			}
		}
		return err == nil
	})
	return err
}

// walk visits the function bodies in name order, each with its parameters
// bound, then the query body, so the compile output (the first static
// error, the diagnostics) never depends on map order.
func (p *Prepared) walk(visit func(xquery.Expr, *xquery.Scope) bool) {
	names := make([]string, 0, len(p.query.Functions))
	for name := range p.query.Functions {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fd := p.query.Functions[name]
		xquery.Walk(fd.Body, fd.Params, visit)
	}
	xquery.Walk(p.query.Body, nil, visit)
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
