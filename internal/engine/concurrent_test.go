package engine

import (
	"strings"
	"sync"
	"testing"
)

// concurrencyQueries exercise the compile-time plan a shared Prepared
// publishes: join selection (hash-join shape), UsesLast predicates,
// descendant dedup, and plain navigation.
var concurrencyQueries = []string{
	`for $b in /site/people/person[@id="person0"] return $b/name/text()`,
	`for $p in /site/people/person
	 for $a in /site/closed_auctions/closed_auction
	 where $a/buyer/@person = $p/@id
	 return <historic>{$p/name/text()}</historic>`,
	`for $i in /site/regions//item return $i/name[last()]/text()`,
	`count(//item) + count(/site/people/person)`,
	`for $a in /site/open_auctions/open_auction
	 order by $a/current descending
	 return $a/current/text()`,
}

// TestConcurrentSharedPrepared is the race regression net under the
// Prepared/Session split: one Prepared per store and query, executed by 8
// goroutines at once (each with its own Session, as a service worker pool
// would), must produce byte-identical results with no data race. Before
// the split, the evaluator's lazily-filled plan and usesLast memos made
// this unsafe by construction; run with -race to pin the fix.
func TestConcurrentSharedPrepared(t *testing.T) {
	const goroutines = 8
	const iters = 4
	for _, e := range sampleStores(t) {
		for _, src := range concurrencyQueries {
			prep, err := e.Prepare(src)
			if err != nil {
				t.Fatalf("[%s] %v\nquery: %s", e.Store().Name(), err, src)
			}
			var want strings.Builder
			if err := prep.Serialize(&want); err != nil {
				t.Fatalf("[%s] %v\nquery: %s", e.Store().Name(), err, src)
			}

			var wg sync.WaitGroup
			errs := make(chan string, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := NewSession() // per-worker, reused across iterations
					for i := 0; i < iters; i++ {
						var got strings.Builder
						iw := NewItemWriter(&got, prep.engine.store)
						err := prep.StreamSession(sess, func(it Item) bool {
							return iw.WriteItem(it) == nil
						})
						if err != nil {
							errs <- err.Error()
							return
						}
						if got.String() != want.String() {
							errs <- "concurrent result differs from sequential"
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for msg := range errs {
				t.Fatalf("[%s] %s\nquery: %s", e.Store().Name(), msg, src)
			}
		}
	}
}

// TestSessionReuseRebindsEvaluator is the regression test for recycled
// iterators carrying the previous execution's evaluator: after a first
// query populates the Session's free lists, a second query whose step
// predicate calls a user-declared function must see its own funcs map
// (a stale evaluator made it fail with "unknown function").
func TestSessionReuseRebindsEvaluator(t *testing.T) {
	for _, e := range sampleStores(t) {
		sess := NewSession()
		warm, err := e.Prepare(`for $p in /site/people/person[@id = "person1"] return $p/name/text()`)
		if err != nil {
			t.Fatal(err)
		}
		if err := warm.StreamSession(sess, func(Item) bool { return true }); err != nil {
			t.Fatal(err)
		}
		withFunc, err := e.Prepare(`declare function local:rich($p) { $p/profile/@income > 50000 };
			for $p in /site/people/person[local:rich(.)] return $p/name/text()`)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		iw := NewItemWriter(&got, e.Store())
		if err := withFunc.StreamSession(sess, func(it Item) bool {
			return iw.WriteItem(it) == nil
		}); err != nil {
			t.Fatalf("[%s] reused session lost the query's functions: %v", e.Store().Name(), err)
		}
		var want strings.Builder
		if err := withFunc.Serialize(&want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("[%s] reused-session result %q != fresh result %q", e.Store().Name(), got.String(), want.String())
		}
	}
}

// TestSessionReuseAcrossQueries pins that one Session may serve many
// different Prepared queries in sequence (the worker-pool usage): nothing
// on it depends on the plan, and each query's join build sides live on its
// own Prepared.
func TestSessionReuseAcrossQueries(t *testing.T) {
	for _, e := range sampleStores(t) {
		sess := NewSession()
		for round := 0; round < 3; round++ {
			for _, src := range concurrencyQueries {
				prep, err := e.Prepare(src)
				if err != nil {
					t.Fatal(err)
				}
				var want strings.Builder
				if err := prep.Serialize(&want); err != nil {
					t.Fatal(err)
				}
				var got strings.Builder
				iw := NewItemWriter(&got, e.Store())
				if err := prep.StreamSession(sess, func(it Item) bool {
					return iw.WriteItem(it) == nil
				}); err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Fatalf("[%s] session run differs from fresh run\nquery: %s", e.Store().Name(), src)
				}
			}
		}
	}
}
