package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/xmark"
)

// ErrQueueFull is returned by Execute when the admission queue is at
// capacity: the service sheds load instead of queueing without bound.
var ErrQueueFull = errors.New("service: admission queue full")

// ErrClosed is returned by Execute after Close.
var ErrClosed = errors.New("service: executor closed")

// ErrInternal wraps a panic a worker recovered while executing a request:
// a bug in the engine or a store, not a fault of the query. The worker
// keeps serving; the error names the request.
var ErrInternal = errors.New("service: internal error")

// Config sizes an Executor.
type Config struct {
	// Workers is the number of worker goroutines; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth is the admission queue capacity; <= 0 means 4×Workers.
	QueueDepth int
	// Parallel is the shared intra-query parallelism pool: the total
	// number of partition workers the executor hands out across all
	// in-flight requests. Each request is granted a degree of roughly
	// Parallel divided by the requests currently executing, so one client
	// on an idle 8-core box fans its scans out 8 ways while eight
	// concurrent clients run sequentially — both saturate the hardware.
	// <= 0 means GOMAXPROCS; 1 disables intra-query parallelism.
	Parallel int
}

// Request names one query execution: a numbered query by ID (served from
// the Catalog's plan cache) or an ad-hoc query text (compiled on the
// worker).
type Request struct {
	System  xmark.SystemID
	QueryID int
	Text    string
}

// Response is one completed execution.
type Response struct {
	System  xmark.SystemID
	QueryID int
	// Output is the serialized result.
	Output string
	// Wait is the time spent in the admission queue.
	Wait time.Duration
	// Exec is the evaluation plus serialization time on the worker.
	Exec time.Duration
	// Compile is the parse and plan time of an ad-hoc query text, spent on
	// the worker before Exec starts; 0 for a plan-cache hit.
	Compile time.Duration
	// LeadAtomic and TailAtomic report whether Output begins/ends with an
	// atomic item (both false when Output is empty). The serializer
	// separates adjacent atomics with a single space, so a merger
	// concatenating independently produced outputs (the shard
	// coordinator) must re-insert that space exactly when one piece ends
	// atomic and the next begins atomic.
	LeadAtomic bool
	TailAtomic bool
	// Warnings are the query's compile-time path diagnostics
	// (engine.Prepared.Diagnostics): provably empty path expressions the
	// store's catalog could check, surfaced per response so HTTP callers
	// see them as X-Query-Warnings.
	Warnings []string
}

type taskResult struct {
	resp Response
	err  error
}

type task struct {
	ctx  context.Context
	req  Request
	enq  time.Time
	done chan taskResult
}

// Executor runs queries against a shared Catalog on a bounded worker
// pool. Admission is a fixed-capacity queue: Execute either enqueues
// immediately or fails fast with ErrQueueFull (backpressure). Each worker
// owns one engine.Session, so all mutable evaluator scratch — recycled
// iterators and batch buffers — stays strictly per goroutine while the
// Catalog's stores and compiled plans are shared. A cached plan's join
// build sides live on its engine.Prepared, built once by the first
// request that needs them and shared read-only by every worker after.
type Executor struct {
	cat      *Catalog
	metrics  *Metrics
	queue    chan *task
	workers  int
	parallel int

	// bufs recycles per-request output buffers across workers, sized by
	// recent response byte counts; hit rate is exported via /stats and
	// /metrics.
	bufs bufPool

	// degMu guards the pool's outstanding reservations (degGranted).
	degMu      sync.Mutex
	degGranted int

	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// NewExecutor starts the worker pool over the catalog.
func NewExecutor(cat *Catalog, cfg Config) *Executor {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	e := &Executor{
		cat:      cat,
		metrics:  NewMetrics(),
		queue:    make(chan *task, depth),
		workers:  workers,
		parallel: parallel,
	}
	e.bufs.metrics = e.metrics
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Metrics returns the executor's collector.
func (e *Executor) Metrics() *Metrics { return e.metrics }

// Workers returns the pool size.
func (e *Executor) Workers() int { return e.workers }

// Parallel returns the shared intra-query parallelism pool size.
func (e *Executor) Parallel() int { return e.parallel }

// grantDegree reserves one request's parallelism budget from the shared
// pool: the pool divided by the requests in flight (this one included),
// clamped to what the pool still has unclaimed, never below sequential.
// A single client on an idle server gets the whole pool; a fully loaded
// worker pool degrades everyone to degree 1. Reservation makes the pool
// a real cap — concurrent grants can never hand out more partition
// workers than Parallel — and releaseDegree returns the budget when the
// request finishes. Degree-1 grants reserve nothing: a sequential
// execution spawns no partition workers.
func (e *Executor) grantDegree() int {
	e.degMu.Lock()
	defer e.degMu.Unlock()
	active := int(e.metrics.inFlight.Load())
	if active < 1 {
		active = 1
	}
	deg := e.parallel / active
	if avail := e.parallel - e.degGranted; deg > avail {
		deg = avail
	}
	if deg <= 1 {
		return 1
	}
	e.degGranted += deg
	return deg
}

// releaseDegree returns a grantDegree reservation to the pool.
func (e *Executor) releaseDegree(deg int) {
	if deg <= 1 {
		return
	}
	e.degMu.Lock()
	e.degGranted -= deg
	e.degMu.Unlock()
}

// QueueCap returns the admission queue capacity.
func (e *Executor) QueueCap() int { return cap(e.queue) }

// Execute submits the request and blocks until its result is ready, the
// queue rejects it, or ctx is done. A request whose context is canceled
// while queued or mid-execution returns the context's error; its worker
// slot is released as soon as the cancellation is observed.
func (e *Executor) Execute(ctx context.Context, req Request) (Response, error) {
	t := &task{ctx: ctx, req: req, enq: time.Now(), done: make(chan taskResult, 1)}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return Response{}, ErrClosed
	}
	// The gauge goes up before the send so a worker's decrement (which can
	// only follow its pop, which follows the send) never observes it low;
	// a rejected submission undoes its increment.
	e.metrics.queueDepth.Add(1)
	select {
	case e.queue <- t:
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		e.metrics.queueDepth.Add(-1)
		e.metrics.rejected.Add(1)
		return Response{}, ErrQueueFull
	}
	// The done channel is buffered: if the caller leaves on ctx.Done the
	// worker's send still completes and the task is garbage collected.
	select {
	case r := <-t.done:
		return r.resp, r.err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// Close stops admission, lets the workers drain the queue, and waits for
// them to exit. Queued requests still complete; new Execute calls return
// ErrClosed.
func (e *Executor) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Executor) worker() {
	defer e.wg.Done()
	// The worker's Session lives as long as the worker: free-list buffers
	// stay warm across every query it executes, cached plan or ad-hoc text.
	// It holds nothing of any request's plan: join build sides live on the
	// Prepared, so an ad-hoc text's die with it after its one request.
	sess := engine.NewSession()
	for t := range e.queue {
		e.serve(sess, t)
	}
}

// serve runs one dequeued task on the worker's session and answers it.
func (e *Executor) serve(sess *engine.Session, t *task) {
	e.metrics.queueDepth.Add(-1)
	wait := time.Since(t.enq)
	if t.ctx.Err() != nil {
		// Canceled while queued: don't start the work.
		e.metrics.canceled.Add(1)
		t.done <- taskResult{err: t.ctx.Err()}
		return
	}
	e.metrics.inFlight.Add(1)
	resp, err := e.runRecovered(t.ctx, sess, t.req)
	e.metrics.inFlight.Add(-1)
	resp.Wait = wait
	switch {
	case err == nil:
		e.metrics.observe(t.req.System, t.req.QueryID, wait, resp.Exec)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.metrics.canceled.Add(1)
	default:
		e.metrics.failed.Add(1)
	}
	t.done <- taskResult{resp: resp, err: err}
}

// runRecovered is run with a panic barrier. The engine turns evaluation
// errors into error returns itself; anything else that panics below — an
// engine bug, a store invariant — would take the whole process down with
// every other request in flight. It becomes this request's ErrInternal
// instead, with the stack on standard error, and the session it unwound
// through is replaced rather than trusted.
func (e *Executor) runRecovered(ctx context.Context, sess *engine.Session, req Request) (resp Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			id := obs.RequestIDFrom(ctx)
			fmt.Fprintf(os.Stderr, "service: panic executing request %q: %v\n%s", id, r, debug.Stack())
			*sess = engine.Session{}
			resp = Response{System: req.System, QueryID: req.QueryID}
			err = fmt.Errorf("%w: request %q: %v", ErrInternal, id, r)
		}
	}()
	return e.run(ctx, sess, req)
}

// run executes one request on this worker's Session, serializing the
// result through an ItemWriter over a writer that checks the request
// context on every write, so cancellation is observed at the next result
// item and the rest of the result is never computed.
func (e *Executor) run(ctx context.Context, sess *engine.Session, req Request) (Response, error) {
	resp := Response{System: req.System, QueryID: req.QueryID}
	var prep *engine.Prepared
	var err error
	switch {
	case req.QueryID != 0:
		prep, err = e.cat.Prepared(req.System, req.QueryID)
	case req.Text != "":
		// An ad-hoc Prepared lives for one request, and so do the join
		// build sides memoized on it.
		start := time.Now()
		prep, err = e.cat.PrepareText(req.System, req.Text)
		resp.Compile = time.Since(start)
	default:
		err = fmt.Errorf("service: request needs a QueryID or a Text")
	}
	if err != nil {
		return resp, err
	}
	inst, err := e.cat.Instance(req.System)
	if err != nil {
		return resp, err
	}
	resp.Warnings = prep.Diagnostics
	// Reserve the request's intra-query parallelism budget for this
	// execution; the engine's Gather operators clamp it per plan.
	degree := e.grantDegree()
	defer e.releaseDegree(degree)
	sess.Degree = degree

	start := time.Now()
	buf := e.bufs.get()
	defer e.bufs.put(buf)
	iw := engine.NewItemWriter(ctxWriter{ctx: ctx, w: buf}, inst.Engine.Store())
	err = prep.SerializeTo(iw, sess)
	resp.Exec = time.Since(start)
	if err != nil {
		return resp, err
	}
	resp.Output = buf.String()
	resp.LeadAtomic, resp.TailAtomic = iw.LeadAtomic(), iw.TailAtomic()
	return resp, nil
}

// ctxWriter fails a write once its request context is done, with the
// context's error, so a canceled request's execution stops at its next
// result item.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c ctxWriter) Write(b []byte) (int, error) {
	select {
	case <-c.ctx.Done():
		return 0, c.ctx.Err()
	default:
		return c.w.Write(b)
	}
}
