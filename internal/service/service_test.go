package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/xmark"
)

// testCatalog loads one shared catalog for the whole test binary: catalog
// construction is the expensive part, and sharing it across tests is
// exactly the usage the type promises to support.
var (
	catOnce sync.Once
	cat     *Catalog
	catErr  error
)

func testCat(t *testing.T) *Catalog {
	t.Helper()
	catOnce.Do(func() {
		cat, catErr = Load(0.005, nil)
	})
	if catErr != nil {
		t.Fatal(catErr)
	}
	return cat
}

// sequentialReference runs every query on every system directly through
// the cached Prepared plans, one at a time.
func sequentialReference(t *testing.T, c *Catalog) map[prepKey]string {
	t.Helper()
	ref := make(map[prepKey]string)
	for _, s := range c.Systems() {
		for _, q := range xmark.Queries() {
			prep, err := c.Prepared(s.ID, q.ID)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := prep.Serialize(&out); err != nil {
				t.Fatalf("system %s Q%d: %v", s.ID, q.ID, err)
			}
			ref[prepKey{s.ID, q.ID}] = out.String()
		}
	}
	return ref
}

// TestCatalogServesAllQueries pins that the catalog's numbered queries
// are exactly xmark.AllQueries, the list VerifyAll cross-checks, so no
// served query escapes the cross-system agreement test.
func TestCatalogServesAllQueries(t *testing.T) {
	ids := testCat(t).QueryIDs()
	all := xmark.AllQueries()
	if len(ids) != len(all) {
		t.Fatalf("catalog serves %d queries, VerifyAll checks %d", len(ids), len(all))
	}
	for i, q := range all {
		if ids[i] != q.ID {
			t.Fatalf("catalog query %d is Q%d, AllQueries has Q%d", i, ids[i], q.ID)
		}
	}
}

// TestConcurrentAllQueriesAllSystems is the acceptance net of the service
// layer: 8 goroutines concurrently execute every benchmark query on every
// system through one shared Executor, and every result must be
// byte-identical to the sequential run. With -race this also pins that
// the Catalog's stores and plans are shared without a data race.
func TestConcurrentAllQueriesAllSystems(t *testing.T) {
	c := testCat(t)
	ref := sequentialReference(t, c)

	ex := NewExecutor(c, Config{Workers: 4, QueueDepth: 64})
	defer ex.Close()

	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			systems := c.Systems()
			for i := 0; i < len(systems)*20; i++ {
				// Each goroutine starts at a different offset so distinct
				// (system, query) pairs run at the same instant.
				idx := (i + g*17) % (len(systems) * 20)
				sys := systems[idx/20].ID
				qid := idx%20 + 1
				resp, err := ex.Execute(context.Background(), Request{System: sys, QueryID: qid})
				if err != nil {
					errCh <- err
					return
				}
				if resp.Output != ref[prepKey{sys, qid}] {
					errCh <- errors.New("system " + string(sys) + " concurrent output differs from sequential")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	snap := ex.Metrics().Snapshot()
	if want := uint64(goroutines * len(c.Systems()) * 20); snap.Completed != want {
		t.Fatalf("metrics completed = %d, want %d", snap.Completed, want)
	}
	if snap.Failed != 0 || snap.Canceled != 0 {
		t.Fatalf("unexpected failures: %+v", snap)
	}
	if snap.InFlight != 0 || snap.QueueDepth != 0 {
		t.Fatalf("executor not drained: %+v", snap)
	}
}

// TestConcurrentQueueSaturation pins the admission control: once the
// single worker is busy and the two queue slots are occupied by slow
// queries, further submissions must fail fast with ErrQueueFull while
// every accepted request still completes.
func TestConcurrentQueueSaturation(t *testing.T) {
	c := testCat(t)
	ex := NewExecutor(c, Config{Workers: 1, QueueDepth: 2})
	defer ex.Close()

	// Wedge the executor: one slow query executing, two more queued. The
	// blocker multiplies slowQuery by the six continent subtrees so its
	// execution window spans many scheduler slices even on one core.
	// Submissions retry on rejection because the worker may not have
	// popped the previous blocker yet.
	const blockerQuery = `for $a in //item return for $b in //item return for $c in /site/regions/* return $a/location/text()`
	var blockers sync.WaitGroup
	for i := 0; i < 3; i++ {
		blockers.Add(1)
		go func() {
			defer blockers.Done()
			for {
				_, err := ex.Execute(context.Background(), Request{System: xmark.SystemF, Text: blockerQuery})
				if !errors.Is(err, ErrQueueFull) {
					if err != nil {
						t.Errorf("blocker: %v", err)
					}
					return
				}
			}
		}()
	}
	full := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		snap := ex.Metrics().Snapshot()
		if snap.InFlight == 1 && snap.QueueDepth == 2 {
			full = true
			break
		}
		runtime.Gosched()
	}
	if !full {
		t.Fatal("executor never reached the wedged state")
	}

	// Every submission against the full queue is shed immediately; the
	// in-flight slow query gives a window of at least its own runtime.
	rejected := 0
	for i := 0; i < 8; i++ {
		_, err := ex.Execute(context.Background(), Request{System: xmark.SystemD, QueryID: 1})
		if errors.Is(err, ErrQueueFull) {
			rejected++
		}
	}
	blockers.Wait()
	if rejected == 0 {
		t.Fatal("no ErrQueueFull against a wedged 1-worker/2-slot executor")
	}
	if got := ex.Metrics().Snapshot().Rejected; got < uint64(rejected) {
		t.Fatalf("metrics rejected = %d, want >= %d", got, rejected)
	}
}

// slowQueries are quadratic nested loops producing a long result stream:
// cheap per item, so cancellation lands mid-stream rather than before or
// after the work. The first streams atomic items; the second's root is a
// constructor, which the executor pushes into its writer whole, one
// constructed element per outer item.
var slowQueries = []string{
	`for $a in //item return for $b in //item return $a/location/text()`,
	`for $a in //item return <r>{for $b in //item return $a/location/text()}</r>`,
}

// TestConcurrentCancellationReleasesWorkers pins per-request
// cancellation: canceling mid-stream returns the context error, frees the
// worker slot, and leaves the executor fully usable.
func TestConcurrentCancellationReleasesWorkers(t *testing.T) {
	c := testCat(t)
	ex := NewExecutor(c, Config{Workers: 1, QueueDepth: 4})
	defer ex.Close()

	for _, slowQuery := range slowQueries {
		// Warm up: measure the uncanceled slow query so the cancellation
		// point lands inside its execution window.
		resp, err := ex.Execute(context.Background(), Request{System: xmark.SystemF, Text: slowQuery})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Output == "" {
			t.Fatal("slow query returned nothing; cancellation window would be empty")
		}

		for i := 0; i < 4; i++ {
			canceled := ex.Metrics().Snapshot().Canceled
			ctx, cancel := context.WithTimeout(context.Background(), resp.Exec/4+time.Microsecond)
			_, err := ex.Execute(ctx, Request{System: xmark.SystemF, Text: slowQuery})
			cancel()
			if err == nil {
				// The machine outran the timeout; not a failure of the
				// release property.
				continue
			}
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: want a context error, got %v", slowQuery, err)
			}
			// Execute returns when the context ends, whatever the worker
			// does; the worker itself must stop mid-stream with the
			// context error (counted as canceled) rather than finish the
			// result.
			waitDrained(t, ex)
			if got := ex.Metrics().Snapshot().Canceled; got != canceled+1 {
				t.Errorf("%s: the worker did not stop on the cancellation (canceled %d, want %d)", slowQuery, got, canceled+1)
			}
		}
	}

	// The single worker must be free again: a fresh request completes.
	done := make(chan error, 1)
	go func() {
		_, err := ex.Execute(context.Background(), Request{System: xmark.SystemD, QueryID: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("executor unusable after cancellations: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker slot not released after cancellation")
	}
	waitDrained(t, ex)
}

// waitDrained asserts the in-flight and queue gauges return to zero.
func waitDrained(t *testing.T, ex *Executor) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := ex.Metrics().Snapshot()
		if snap.InFlight == 0 && snap.QueueDepth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("executor did not drain: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorClose pins shutdown: queued work drains, later submissions
// are refused.
func TestExecutorClose(t *testing.T) {
	c := testCat(t)
	ex := NewExecutor(c, Config{Workers: 2, QueueDepth: 8})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(qid int) {
			defer wg.Done()
			if _, err := ex.Execute(context.Background(), Request{System: xmark.SystemE, QueryID: qid}); err != nil && !errors.Is(err, ErrQueueFull) {
				t.Errorf("pre-close execute: %v", err)
			}
		}(i%20 + 1)
	}
	wg.Wait()
	ex.Close()
	if _, err := ex.Execute(context.Background(), Request{System: xmark.SystemE, QueryID: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after Close, got %v", err)
	}
	// Close is idempotent.
	ex.Close()
}

// TestAdHocQueryText pins the uncached compile path and its error
// surface.
func TestAdHocQueryText(t *testing.T) {
	c := testCat(t)
	ex := NewExecutor(c, Config{Workers: 2, QueueDepth: 8})
	defer ex.Close()

	resp, err := ex.Execute(context.Background(), Request{System: xmark.SystemD, Text: `count(/site/people/person)`})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output == "" || resp.Output == "0" {
		t.Fatalf("ad-hoc count returned %q", resp.Output)
	}
	if _, err := ex.Execute(context.Background(), Request{System: xmark.SystemD, Text: `for $x in`}); err == nil {
		t.Fatal("syntax error did not surface")
	}
	if _, err := ex.Execute(context.Background(), Request{System: "Z", QueryID: 1}); err == nil {
		t.Fatal("unknown system did not surface")
	}
	if _, err := ex.Execute(context.Background(), Request{System: xmark.SystemD}); err == nil {
		t.Fatal("empty request did not surface")
	}
	if ex.Metrics().Snapshot().Failed != 3 {
		t.Fatalf("failed counter = %d, want 3", ex.Metrics().Snapshot().Failed)
	}
}

// TestConcurrentParallelDegreePool runs the executor with a large shared
// intra-query parallelism pool and concurrent clients: each request gets
// a degree slice, partitioned scans fan out inside the requests, and
// every result must still be byte-identical to the sequential reference.
// With -race this pins the combination of inter-query worker concurrency
// and intra-query partition workers.
func TestConcurrentParallelDegreePool(t *testing.T) {
	c := testCat(t)
	ref := sequentialReference(t, c)
	ex := NewExecutor(c, Config{Workers: 4, QueueDepth: 256, Parallel: 8})
	defer ex.Close()
	if ex.Parallel() != 8 {
		t.Fatalf("Parallel() = %d, want 8", ex.Parallel())
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range c.Systems() {
				for _, qid := range []int{1, 5, 8, 14, 19, 20} {
					resp, err := ex.Execute(context.Background(), Request{System: s.ID, QueryID: qid})
					if err != nil {
						errs <- err
						return
					}
					if resp.Output != ref[prepKey{s.ID, qid}] {
						errs <- errors.New("parallel-degree output differs from sequential reference")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
