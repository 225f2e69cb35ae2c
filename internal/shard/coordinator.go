package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/xmark"
	"repro/internal/xquery"
)

// ErrShardUnavailable marks a shard that could not be reached — the
// transient dead-shard failure the coordinator retries.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// ErrCorruptReply marks a shard reply whose checksum did not verify at
// gather; the reply is discarded (never merged) and the attempt retried.
var ErrCorruptReply = errors.New("shard: corrupt shard reply")

// Policy selects the degraded-mode behavior when a shard's sub-query
// still fails after retries.
type Policy int

const (
	// FailFast fails the whole query with the first shard error: no
	// partial output ever reaches the caller.
	FailFast Policy = iota
	// PartialResults merges the surviving shards' outputs and flags the
	// result Partial, listing the failed shards and a warning per
	// failure.
	PartialResults
)

// String names the policy for status endpoints.
func (p Policy) String() string {
	if p == PartialResults {
		return "partial-results"
	}
	return "fail-fast"
}

// Config tunes a Coordinator.
type Config struct {
	// Exec sizes each shard's executor (and the global replica's). The
	// zero value defaults to 2 workers with intra-query parallelism
	// disabled: the scatter across shards is the parallelism axis.
	Exec service.Config
	// ShardDeadline bounds each per-shard sub-query attempt; 0 means no
	// deadline (attempts are bounded only by the caller's context).
	ShardDeadline time.Duration
	// Retries is how many times a transiently failed attempt is retried
	// per shard (0 = first failure is final).
	Retries int
	// Policy is the degraded-mode behavior after retries are exhausted.
	Policy Policy
	// Injector is the fault seam; nil injects nothing.
	Injector FaultInjector
}

// Result is one coordinated query execution.
type Result struct {
	Output string
	// Scattered is true when the query decomposed across the shards;
	// false when the global unsharded replica served it.
	Scattered bool
	// Merge is how per-shard results recombined (ShardNone for the
	// global-replica path).
	Merge plan.ShardMerge
	// Partial is true when the PartialResults policy dropped failed
	// shards from the merge.
	Partial bool
	// Failed lists the shards whose sub-query failed after retries
	// (PartialResults only).
	Failed []int
	// Warnings carries one message per failed shard (PartialResults
	// only).
	Warnings []string
	// Retried counts the transient retries spent across all shards.
	Retried int
	// Elapsed is the wall time of the whole scatter-gather (or
	// global-replica execution).
	Elapsed time.Duration
}

// ShardError wraps a sub-query failure with the shard that caused it
// and how many attempts it was given.
type ShardError struct {
	Shard    int
	Attempts int
	Err      error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d failed after %d attempt(s): %v", e.Shard, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is.
func (e *ShardError) Unwrap() error { return e.Err }

// Coordinator owns one executor per shard plus one for the global
// replica and serves queries by scatter-gather. Plan once: the
// shardability analysis runs at construction for every benchmark query
// (each shard's plan cache was compiled at load), so a Query call only
// fans out and merges. Immutable after construction; safe for
// concurrent use.
type Coordinator struct {
	cat    *ShardedCatalog
	cfg    Config
	execs  []*service.Executor
	global *service.Executor
	modes  map[int]plan.ShardMerge
	env    map[string]bool

	scattered atomic.Uint64
	fallbacks atomic.Uint64
	retries   atomic.Uint64
	deadlines atomic.Uint64
	corrupted atomic.Uint64
	failures  atomic.Uint64
}

// NewCoordinator builds the per-shard executors and classifies every
// benchmark query. Close releases the executors.
func NewCoordinator(cat *ShardedCatalog, cfg Config) (*Coordinator, error) {
	if cfg.Exec.Workers <= 0 {
		cfg.Exec.Workers = 2
	}
	if cfg.Exec.Parallel <= 0 {
		// Scatter across shards is the parallelism axis; per-shard plans
		// run sequentially unless explicitly configured otherwise.
		cfg.Exec.Parallel = 1
	}
	co := &Coordinator{
		cat:   cat,
		cfg:   cfg,
		execs: make([]*service.Executor, len(cat.Shards)),
		modes: make(map[int]plan.ShardMerge),
		env:   xmark.EnvelopeTags(),
	}
	for i, sh := range cat.Shards {
		co.execs[i] = service.NewExecutor(sh.Catalog, cfg.Exec)
	}
	co.global = service.NewExecutor(cat.Global, cfg.Exec)
	for _, qid := range cat.Global.QueryIDs() {
		text, err := cat.Global.QueryText(qid)
		if err != nil {
			co.Close()
			return nil, err
		}
		parsed, err := xquery.Parse(text)
		if err != nil {
			co.Close()
			return nil, fmt.Errorf("shard: parsing Q%d: %w", qid, err)
		}
		co.modes[qid] = plan.ShardableQuery(parsed, plan.ShardSchema{Envelope: co.env})
	}
	return co, nil
}

// Close shuts down every shard executor and the global replica's.
func (co *Coordinator) Close() {
	for _, ex := range co.execs {
		ex.Close()
	}
	if co.global != nil {
		co.global.Close()
	}
}

// Shards returns the shard count.
func (co *Coordinator) Shards() int { return len(co.execs) }

// Global returns the unsharded replica's executor — the path that serves
// non-decomposable queries, and the reference for explain/stats wiring.
func (co *Coordinator) Global() *service.Executor { return co.global }

// MergeMode returns the classification of benchmark query qid.
func (co *Coordinator) MergeMode(qid int) plan.ShardMerge { return co.modes[qid] }

// Query executes benchmark query qid on the system across the shards.
func (co *Coordinator) Query(ctx context.Context, sys xmark.SystemID, qid int) (Result, error) {
	mode, ok := co.modes[qid]
	if !ok {
		return Result{}, fmt.Errorf("shard: no benchmark query Q%d", qid)
	}
	return co.run(ctx, service.Request{System: sys, QueryID: qid}, mode)
}

// QueryText executes an ad-hoc query: it is parsed and classified here,
// then compiled on each shard's (or the global replica's) workers.
func (co *Coordinator) QueryText(ctx context.Context, sys xmark.SystemID, text string) (Result, error) {
	parsed, err := xquery.Parse(text)
	if err != nil {
		return Result{}, err
	}
	mode := plan.ShardableQuery(parsed, plan.ShardSchema{Envelope: co.env})
	return co.run(ctx, service.Request{System: sys, Text: text}, mode)
}

// shardReply is one shard's final sub-query outcome.
type shardReply struct {
	resp     service.Response
	err      error
	attempts int
}

func (co *Coordinator) run(ctx context.Context, req service.Request, mode plan.ShardMerge) (Result, error) {
	start := time.Now()
	sp := obs.FromContext(ctx)
	if mode == plan.ShardNone {
		// Non-decomposable query: the global unsharded replica serves it.
		co.fallbacks.Add(1)
		if sp != nil {
			gsp := sp.Child("global-replica")
			ctx = obs.ContextWith(ctx, gsp)
			defer gsp.End()
		}
		resp, err := co.global.Execute(ctx, req)
		if err != nil {
			return Result{}, err
		}
		return Result{Output: resp.Output, Merge: mode, Elapsed: time.Since(start)}, nil
	}

	co.scattered.Add(1)
	replies := make([]shardReply, len(co.execs))
	var wg sync.WaitGroup
	for i := range co.execs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx := ctx
			if sp != nil {
				ssp := sp.Child(fmt.Sprintf("shard %d", i))
				sctx = obs.ContextWith(ctx, ssp)
				defer func() {
					r := &replies[i]
					ssp.Set("attempts", strconv.Itoa(r.attempts))
					if r.err != nil {
						ssp.Set("error", r.err.Error())
					}
					ssp.End()
				}()
			}
			replies[i] = co.subquery(sctx, i, req)
		}(i)
	}
	// Every scatter goroutine observes ctx through its attempt context,
	// so this join returns promptly on cancellation — no goroutine
	// outlives the query.
	wg.Wait()
	var msp *obs.Span
	if sp != nil {
		msp = sp.Child("merge")
		msp.Set("mode", mode.String())
	}
	res, err := co.gather(ctx, mode, replies)
	if msp != nil {
		msp.End()
	}
	res.Elapsed = time.Since(start)
	return res, err
}

// subquery runs one shard's sub-query with per-attempt deadline and
// fault injection, retrying transient failures up to cfg.Retries times.
func (co *Coordinator) subquery(ctx context.Context, i int, req service.Request) shardReply {
	sp := obs.FromContext(ctx)
	var r shardReply
	for attempt := 0; ; attempt++ {
		r.attempts = attempt + 1
		actx := ctx
		var asp *obs.Span
		if sp != nil {
			asp = sp.Child(fmt.Sprintf("attempt %d", attempt))
			if dl, ok := ctx.Deadline(); ok {
				asp.Set("deadline_remaining", time.Until(dl).String())
			}
			if co.cfg.ShardDeadline > 0 {
				asp.Set("shard_deadline", co.cfg.ShardDeadline.String())
			}
			actx = obs.ContextWith(ctx, asp)
		}
		r.resp, r.err = co.attempt(actx, i, attempt, req)
		if asp != nil {
			if r.err != nil {
				asp.Set("error", r.err.Error())
			}
			asp.End()
		}
		if r.err == nil {
			return r
		}
		if errors.Is(r.err, context.DeadlineExceeded) && ctx.Err() == nil {
			co.deadlines.Add(1)
		}
		if attempt >= co.cfg.Retries || !co.transient(ctx, r.err) {
			return r
		}
		co.retries.Add(1)
	}
}

// attempt executes one try of shard i's sub-query: deadline, fault
// injection, execution, and reply verification.
func (co *Coordinator) attempt(ctx context.Context, i, attempt int, req service.Request) (service.Response, error) {
	actx := ctx
	if co.cfg.ShardDeadline > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, co.cfg.ShardDeadline)
		defer cancel()
	}
	var f Fault
	if co.cfg.Injector != nil {
		f = co.cfg.Injector.Fault(i, attempt)
	}
	switch {
	case f.Hang:
		// An infinitely slow shard: the only possible outcome is the
		// attempt context expiring (deadline or caller cancellation).
		<-actx.Done()
		return service.Response{}, actx.Err()
	case f.Fail != nil:
		return service.Response{}, f.Fail
	}
	resp, err := co.execs[i].Execute(actx, req)
	if err != nil {
		return resp, err
	}
	// The reply integrity check: the checksum is taken where a remote
	// shard would compute it (over its serialized reply) and verified
	// where the coordinator would receive it; the injector's Corrupt
	// transform sits between the two, where the wire would be.
	sum := crc32.ChecksumIEEE([]byte(resp.Output))
	if f.Corrupt != nil {
		resp.Output = f.Corrupt(resp.Output)
	}
	if crc32.ChecksumIEEE([]byte(resp.Output)) != sum {
		co.corrupted.Add(1)
		return service.Response{}, ErrCorruptReply
	}
	return resp, nil
}

// transient reports whether a failed attempt is worth retrying: injected
// unavailability, a corrupt reply, admission-queue overload, or a
// per-attempt deadline — but never the caller's own cancellation or
// deadline, and never a genuine query error.
func (co *Coordinator) transient(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	switch {
	case errors.Is(err, ErrShardUnavailable),
		errors.Is(err, ErrCorruptReply),
		errors.Is(err, service.ErrQueueFull),
		errors.Is(err, context.DeadlineExceeded):
		return true
	}
	return false
}

// gather applies the degraded-mode policy and merges the surviving
// replies in shard (= document) order.
func (co *Coordinator) gather(ctx context.Context, mode plan.ShardMerge, replies []shardReply) (Result, error) {
	res := Result{Scattered: true, Merge: mode}
	for i := range replies {
		r := &replies[i]
		res.Retried += r.attempts - 1
		if r.err == nil {
			continue
		}
		if ctx.Err() != nil {
			// The caller gave up; that is a cancellation, not a shard
			// failure to degrade around.
			return Result{}, ctx.Err()
		}
		co.failures.Add(1)
		serr := &ShardError{Shard: i, Attempts: r.attempts, Err: r.err}
		if co.cfg.Policy == FailFast {
			return Result{}, serr
		}
		res.Partial = true
		res.Failed = append(res.Failed, i)
		res.Warnings = append(res.Warnings, serr.Error())
	}
	switch mode {
	case plan.ShardConcat:
		res.Output = mergeConcat(replies)
	case plan.ShardSum:
		out, err := mergeSum(replies)
		if err != nil {
			return Result{}, err
		}
		res.Output = out
	default:
		return Result{}, fmt.Errorf("shard: cannot gather merge mode %v", mode)
	}
	return res, nil
}

// mergeConcat concatenates the successful replies in shard order —
// which the territory invariant makes global document order — inserting
// the serializer's single-space separator exactly where one shard's
// output ends with an atomic item and the next non-empty shard's begins
// with one, so the merged bytes equal one unsharded serialization pass.
func mergeConcat(replies []shardReply) string {
	var b strings.Builder
	wrote := false
	tailAtomic := false
	for i := range replies {
		r := &replies[i]
		if r.err != nil || r.resp.Output == "" {
			continue
		}
		if wrote && tailAtomic && r.resp.LeadAtomic {
			b.WriteByte(' ')
		}
		b.WriteString(r.resp.Output)
		tailAtomic = r.resp.TailAtomic
		wrote = true
	}
	return b.String()
}

// mergeSum combines per-shard aggregate outputs element-wise: every
// successful shard must emit the same number of space-separated values
// (the envelope bindings are replicated, so this holds by construction
// for ShardSum queries), and position j of the result is the sum of the
// shards' position-j values, re-rendered with the engine's own number
// formatting so the merged bytes match an unsharded run.
func mergeSum(replies []shardReply) (string, error) {
	var sums []float64
	seen := false
	for i := range replies {
		r := &replies[i]
		if r.err != nil {
			continue
		}
		fields := strings.Fields(r.resp.Output)
		if !seen {
			sums = make([]float64, len(fields))
			seen = true
		}
		if len(fields) != len(sums) {
			return "", fmt.Errorf("shard: sum merge arity mismatch: shard %d returned %d values, want %d",
				i, len(fields), len(sums))
		}
		for j, field := range fields {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return "", fmt.Errorf("shard: sum merge: shard %d value %q: %w", i, field, err)
			}
			sums[j] += v
		}
	}
	parts := make([]string, len(sums))
	for j, v := range sums {
		parts[j] = engine.FormatNumber(v)
	}
	return strings.Join(parts, " "), nil
}
