package shard

import (
	"context"
	"errors"
	"math/rand"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/xmark"
)

// cancelQID is the query the cancellation tests scatter: a concat-merged
// reconstruction whose output is spread across every shard.
const cancelQID = 13

// TestCoordinatorFailFast pins the error path: a sub-query that fails on
// every shard (an unknown system) fails the whole query with an error
// naming a shard, and no output.
func TestCoordinatorFailFast(t *testing.T) {
	cat := loadCatalog(t, 0.002, 3, sysD(t))
	co, err := NewCoordinator(cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if co.MergeMode(cancelQID) == plan.ShardNone {
		t.Fatalf("Q%d does not scatter", cancelQID)
	}
	res, err := co.Query(context.Background(), "Z", cancelQID)
	if err == nil {
		t.Fatalf("unknown system answered %q", res.Output)
	}
	if !regexp.MustCompile(`shard \d`).MatchString(err.Error()) {
		t.Fatalf("error %q does not name a shard", err)
	}
	if res.Output != "" {
		t.Fatalf("failed query leaked output %q", res.Output)
	}
}

// TestCoordinatorPreCanceled pins that a context canceled before the
// call returns context.Canceled and executes nothing, on the scattered
// path and on the global replica's.
func TestCoordinatorPreCanceled(t *testing.T) {
	cat := loadCatalog(t, 0.002, 2, sysD(t))
	co, err := NewCoordinator(cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, qid := range []int{cancelQID, 8} {
		if _, err := co.Query(ctx, xmark.SystemD, qid); !errors.Is(err, context.Canceled) {
			t.Errorf("Q%d: want context.Canceled, got %v", qid, err)
		}
	}
	// Close drains the queues, so every task the calls left behind has
	// been seen by a worker before the counters are read.
	co.Close()
	for i, ex := range append(co.execs, co.global) {
		if s := ex.Metrics().Snapshot(); s.Completed != 0 || s.Failed != 0 {
			t.Errorf("executor %d ran work for a canceled query: %+v", i, s)
		}
	}
}

// TestCoordinatorCancellation cancels a scattered query at random points
// and checks that each outcome is either the whole unsharded answer or
// context.Canceled, never a partial merge, and that every scatter
// goroutine returns.
func TestCoordinatorCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nshards := range []int{2, 4} {
		cat := loadCatalog(t, 0.01, nshards, sysD(t))
		co, err := NewCoordinator(cat, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		ref, err := co.global.Execute(ctx, service.Request{System: xmark.SystemD, QueryID: cancelQID})
		if err != nil {
			t.Fatal(err)
		}
		// Cancellation points fall uniformly over the fastest of five
		// uncanceled runs.
		var span time.Duration
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := co.Query(ctx, xmark.SystemD, cancelQID); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); span == 0 || d < span {
				span = d
			}
		}

		// Baseline after the executors' worker pools are up, so the count
		// isolates the scatter goroutines.
		base := runtime.NumGoroutine()
		canceled := 0
		for i := 0; i < 20; i++ {
			qctx, cancel := context.WithCancel(ctx)
			timer := time.AfterFunc(time.Duration(rng.Int63n(int64(span)+1)), cancel)
			res, err := co.Query(qctx, xmark.SystemD, cancelQID)
			timer.Stop()
			cancel()
			switch {
			case errors.Is(err, context.Canceled):
				canceled++
			case err != nil:
				t.Fatalf("%d shards, trial %d: %v", nshards, i, err)
			case res.Output != ref.Output:
				t.Fatalf("%d shards, trial %d: output differs from the unsharded run (%d vs %d bytes)",
					nshards, i, len(res.Output), len(ref.Output))
			}
		}
		t.Logf("%d shards: %d of 20 trials canceled within a %v run", nshards, canceled, span)

		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d shards: goroutines leaked after cancellation: %d > baseline %d",
					nshards, runtime.NumGoroutine(), base)
			}
			time.Sleep(2 * time.Millisecond)
		}
		co.Close()
	}
}
