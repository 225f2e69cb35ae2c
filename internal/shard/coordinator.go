package shard

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/xmark"
	"repro/internal/xquery"
)

// Config tunes a Coordinator.
type Config struct {
	// Exec sizes each shard's executor (and the global replica's). The
	// zero value defaults to 2 workers with intra-query parallelism
	// disabled: the scatter across shards is the parallelism axis.
	Exec service.Config
}

// Result is one coordinated query execution.
type Result struct {
	Output string
	// Scattered is true when the query decomposed across the shards;
	// false when the global unsharded replica served it.
	Scattered bool
}

// Coordinator owns one executor per shard plus one for the global
// replica and serves queries by scatter-gather. Plan once: the
// shardability analysis runs at construction for every benchmark query
// (each shard's plan cache was compiled at load), so a Query call only
// fans out and merges. Immutable after construction; safe for
// concurrent use.
type Coordinator struct {
	execs  []*service.Executor
	global *service.Executor
	modes  map[int]plan.ShardMerge
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
		execs: make([]*service.Executor, len(cat.Shards)),
		modes: make(map[int]plan.ShardMerge),
	}
	for i, sh := range cat.Shards {
		co.execs[i] = service.NewExecutor(sh.Catalog, cfg.Exec)
	}
	co.global = service.NewExecutor(cat.Global, cfg.Exec)
	schema := plan.ShardSchema{Envelope: xmark.EnvelopeTags()}
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
		co.modes[qid] = plan.ShardableQuery(parsed, schema)
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

// Global returns the unsharded replica's executor — the path that serves
// non-decomposable queries, and the reference for explain/stats wiring.
func (co *Coordinator) Global() *service.Executor { return co.global }

// MergeMode returns the classification of benchmark query qid.
func (co *Coordinator) MergeMode(qid int) plan.ShardMerge { return co.modes[qid] }

// shardReply is one shard's sub-query outcome.
type shardReply struct {
	resp service.Response
	err  error
}

// Query executes benchmark query qid on the system across the shards.
// A failed shard fails the whole query with an error naming the shard;
// the caller's own cancellation takes precedence over any shard error.
func (co *Coordinator) Query(ctx context.Context, sys xmark.SystemID, qid int) (Result, error) {
	mode, ok := co.modes[qid]
	if !ok {
		return Result{}, fmt.Errorf("shard: no benchmark query Q%d", qid)
	}
	req := service.Request{System: sys, QueryID: qid}
	if mode == plan.ShardNone {
		// Non-decomposable query: the global unsharded replica serves it.
		resp, err := co.global.Execute(ctx, req)
		if err != nil {
			return Result{}, err
		}
		return Result{Output: resp.Output}, nil
	}

	replies := make([]shardReply, len(co.execs))
	var wg sync.WaitGroup
	for i, ex := range co.execs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i].resp, replies[i].err = ex.Execute(ctx, req)
		}(i)
	}
	// Every scatter goroutine observes ctx through its executor, so this
	// join returns promptly on cancellation — no goroutine outlives the
	// query.
	wg.Wait()
	out, err := gather(ctx, mode, replies)
	if err != nil {
		return Result{}, err
	}
	return Result{Output: out, Scattered: true}, nil
}

// gather fails on the first failed shard and otherwise merges the
// replies in shard (= document) order.
func gather(ctx context.Context, mode plan.ShardMerge, replies []shardReply) (string, error) {
	for i := range replies {
		if err := replies[i].err; err != nil {
			if ctx.Err() != nil {
				// The caller gave up; that is a cancellation, not a shard
				// failure.
				return "", ctx.Err()
			}
			return "", fmt.Errorf("shard %d: %w", i, err)
		}
	}
	switch mode {
	case plan.ShardConcat:
		return mergeConcat(replies), nil
	case plan.ShardSum:
		return mergeSum(replies)
	default:
		return "", fmt.Errorf("shard: cannot gather merge mode %v", mode)
	}
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
