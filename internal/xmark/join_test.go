package xmark

import (
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/nodestore"
)

// numericJoinDoc pairs incomes and initial prices that are equal as
// numbers but not as strings ("5000.00" = 5000, "7" = 7.0).
const numericJoinDoc = `<site><people>` +
	`<person id="p0"><profile income="5000.00"/></person>` +
	`<person id="p1"><profile income="7"/></person>` +
	`</people><open_auctions>` +
	`<open_auction id="o0"><initial>5000</initial></open_auction>` +
	`<open_auction id="o1"><initial>7.0</initial></open_auction>` +
	`</open_auctions></site>`

// TestNumericEqualityJoinMatchesNestedLoop checks equality joins where one
// side is a number: general comparison then compares numerically, which a
// join keyed by the string form of its values would miss. Every system,
// at width 1 and the default width, must answer what System G's nested
// loop answers, for the key written on either side of = and bound
// through a let.
func TestNumericEqualityJoinMatchesNestedLoop(t *testing.T) {
	forms := []string{
		`for $p in /site/people/person, $o in /site/open_auctions/open_auction
		 where number($p/profile/@income) = $o/initial return string($p/@id)`,
		`for $p in /site/people/person, $o in /site/open_auctions/open_auction
		 where $o/initial = number($p/profile/@income) return string($p/@id)`,
		`for $p in /site/people/person let $n := number($p/profile/@income)
		 for $o in /site/open_auctions/open_auction
		 where $n = $o/initial return string($p/@id)`,
		`for $o in /site/open_auctions/open_auction, $p in /site/people/person
		 where number($p/profile/@income) = $o/initial return string($o/@id)`,
	}
	var instances []*Instance
	for _, sys := range Systems() {
		inst, err := sys.Load([]byte(numericJoinDoc))
		if err != nil {
			t.Fatalf("system %s: %v", sys.ID, err)
		}
		instances = append(instances, inst)
	}
	ref := instances[len(instances)-1]
	if ref.System.ID != "G" {
		t.Fatalf("last system is %s, want the nested-loop System G", ref.System.ID)
	}
	for fi, text := range forms {
		refPrep, err := ref.Engine.Prepare(text)
		if err != nil {
			t.Fatalf("form %d: %v", fi, err)
		}
		want := serializeWith(t, refPrep, 1, 1)
		if len(want) != len("p0 p1") {
			t.Fatalf("form %d: reference answered %q, want both matches", fi, want)
		}
		for _, inst := range instances {
			prep, err := inst.Engine.Prepare(text)
			if err != nil {
				t.Fatalf("form %d system %s: %v", fi, inst.System.ID, err)
			}
			for _, width := range []int{1, 0} {
				if got := serializeWith(t, prep, 1, width); got != want {
					t.Errorf("form %d system %s width %d: got %q, want %q", fi, inst.System.ID, width, got, want)
				}
			}
		}
	}
}

// scanCountingStore counts the path-extent cursors a store hands out, per
// path, and every partition cursor it hands out: only gather fan-outs ask
// for them, as the planner reads the catalog instead. A join's build side is the only reader
// of its extent in Q8, Q9 and Q11 on System D, so the count of a build
// path is the number of times that join's index was built.
type scanCountingStore struct {
	nodestore.Store
	mu    sync.Mutex
	scans map[string]int
	parts int
}

func (s *scanCountingStore) opened(parts []nodestore.Cursor, ok bool) ([]nodestore.Cursor, bool) {
	if ok {
		s.mu.Lock()
		s.parts += len(parts)
		s.mu.Unlock()
	}
	return parts, ok
}

func (s *scanCountingStore) TagExtentPartitions(tag string, k int) ([]nodestore.Cursor, bool) {
	return s.opened(s.Store.TagExtentPartitions(tag, k))
}

func (s *scanCountingStore) PathExtentPartitions(path []string, k int) ([]nodestore.Cursor, bool) {
	return s.opened(s.Store.PathExtentPartitions(path, k))
}

func (s *scanCountingStore) PathExtentFilteredPartitions(path []string, fs []nodestore.ValueFilter, k int) ([]nodestore.Cursor, bool) {
	return s.opened(s.Store.PathExtentFilteredPartitions(path, fs, k))
}

// partitions returns the number of partition cursors handed out so far.
func (s *scanCountingStore) partitions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parts
}

func (s *scanCountingStore) PathExtentCursor(path []string) (nodestore.Cursor, bool) {
	s.mu.Lock()
	s.scans["/"+strings.Join(path, "/")]++
	s.mu.Unlock()
	return s.Store.PathExtentCursor(path)
}

func (s *scanCountingStore) count(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scans[path]
}

// TestJoinBuildOncePerPrepared pins that a join's build side belongs to
// the Prepared: two workers, each with its own Session at degree 2 (so
// gather morsels open the joins too), run Q8, Q9 and Q11 on System D over
// one shared Prepared each, many times, and every run gives the sequential
// answer, and every run fans out (opens at least two partition cursors).
// Each build side is built exactly once in the first wave — cold runs and
// their morsels that race for it wait for the one build — and never again
// after it, whatever the worker, request or morsel.
func TestJoinBuildOncePerPrepared(t *testing.T) {
	b := bench(t, 0.01)
	sys, err := SystemByID(SystemD)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sys.Load(b.DocText)
	if err != nil {
		t.Fatal(err)
	}
	const workers, runs = 2, 12
	for _, c := range []struct {
		query  int
		builds []string
	}{
		{8, []string{"/site/closed_auctions/closed_auction"}},
		{9, []string{"/site/closed_auctions/closed_auction", "/site/regions/europe/item"}},
		{11, []string{"/site/open_auctions/open_auction/initial"}},
	} {
		ref, err := inst.Engine.Prepare(b.QueryText(c.query))
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := ref.SerializeSession(&want, nil); err != nil {
			t.Fatal(err)
		}
		store := &scanCountingStore{Store: inst.Engine.Store(), scans: map[string]int{}}
		prep, err := engine.New(store, inst.Engine.Options()).Prepare(b.QueryText(c.query))
		if err != nil {
			t.Fatal(err)
		}
		wave := func(n int) {
			before := store.partitions()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := engine.NewSession()
					sess.Degree = 2
					for i := 0; i < n; i++ {
						var got strings.Builder
						if err := prep.SerializeSession(&got, sess); err != nil {
							t.Error(err)
							return
						}
						if got.String() != want.String() {
							t.Errorf("Q%d: a concurrent run differs from the sequential answer", c.query)
						}
					}
				}()
			}
			wg.Wait()
			if opened := store.partitions() - before; opened < 2*workers*n {
				t.Errorf("Q%d: %d runs at degree 2 opened %d partition cursors, want at least 2 each", c.query, workers*n, opened)
			}
		}
		wave(1)
		first := map[string]int{}
		for _, path := range c.builds {
			first[path] = store.count(path)
			if first[path] != 1 {
				t.Errorf("Q%d: %s built %d times by %d cold runs", c.query, path, first[path], workers)
			}
		}
		wave(runs)
		for _, path := range c.builds {
			if n := store.count(path); n != first[path] {
				t.Errorf("Q%d: %s rebuilt %d times by %d warm runs", c.query, path, n-first[path], workers*runs)
			}
		}
	}
}

// TestPrepareOpensNoPartitions pins that compiling never partitions a
// scan: the parallelize rule reads TagCard/PathCard to learn which scans
// split. Preparing Q8 on D (a path extent scan) and Q14 on B (a tag
// extent over several fragments) still plans a Gather, yet hands out no
// partition cursor.
func TestPrepareOpensNoPartitions(t *testing.T) {
	b := bench(t, 0.01)
	for _, c := range []struct {
		system SystemID
		query  int
	}{{SystemD, 8}, {SystemB, 14}} {
		sys, err := SystemByID(c.system)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sys.Load(b.DocText)
		if err != nil {
			t.Fatal(err)
		}
		store := &scanCountingStore{Store: inst.Engine.Store(), scans: map[string]int{}}
		prep, err := engine.New(store, inst.Engine.Options()).Prepare(b.QueryText(c.query))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(prep.Explain(), "Gather") {
			t.Errorf("Q%d on %s: no Gather planned:\n%s", c.query, c.system, prep.Explain())
		}
		if n := store.partitions(); n != 0 {
			t.Errorf("Q%d on %s: Prepare opened %d partition cursors, want 0", c.query, c.system, n)
		}
	}
}

// TestFocusDependentJoinSideAllSystems pins that a for-clause whose
// sequence is relative to the focus (bidder inside an open_auction
// predicate) is never chosen as a join's build side: its value differs per
// context node, so an index built once would answer every auction with
// the first one's bidders. Every system, at width 1 and the default width,
// must answer what System G's nested loop answers — an equality and a
// theta join. A function body has no focus, so the same sequence hidden
// in one is an error everywhere rather than a stale index.
func TestFocusDependentJoinSideAllSystems(t *testing.T) {
	b := bench(t, 0.01)
	instances, err := b.LoadAll(Systems())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`count(/site/open_auctions/open_auction[count(for $p in /site/people/person for $b in bidder
		 where $b/personref/@person = $p/@id return $b) > 3])`,
		`count(/site/open_auctions/open_auction[count(for $p in /site/people/person[@id = "person0"] for $b in bidder
		 where $b/increase > $p/profile/@income div 10000 return $b) > 3])`,
	} {
		want := ""
		for _, width := range []int{1, 0} {
			for _, inst := range instances {
				prep, err := inst.Engine.Prepare(src)
				if err != nil {
					t.Fatalf("system %s: %v", inst.System.ID, err)
				}
				got := serializeWith(t, prep, 0, width)
				if want == "" {
					want = got
				}
				if got != want || got == "0" {
					t.Errorf("system %s width %d: %s = %s, want %s (nonzero)", inst.System.ID, width, src, got, want)
				}
			}
		}
	}
	src := `declare function local:bids() { bidder };
	 count(/site/open_auctions/open_auction[count(for $p in /site/people/person for $b in local:bids()
	 where $b/personref/@person = $p/@id return $b) > 3])`
	for _, inst := range instances {
		prep, err := inst.Engine.Prepare(src)
		if err != nil {
			t.Fatalf("system %s: %v", inst.System.ID, err)
		}
		if err := prep.SerializeSession(io.Discard, nil); err == nil || !strings.Contains(err.Error(), "context item") {
			t.Errorf("system %s: a function body read the caller's focus: err %v", inst.System.ID, err)
		}
	}
}
