package shard

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/xmark"
)

// TestFulltextByteIdentical is the full-text correctness gate: the
// keyword workload (Q14 plus the hybrid Q21-Q23) must serialize
// byte-identically with the inverted index on and off, on all 7 systems,
// at widths {1, default} x degrees {1, 8}, and through the scatter-gather
// coordinator at 1, 2, and 4 shards. The reference is always the
// index-off sequential scan.
func TestFulltextByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full system x width x degree x shard sweep; skipped in -short mode")
	}
	ctx := context.Background()
	const factor = 0.002
	systems := xmark.Systems()
	queryIDs := xmark.FulltextQueryIDs
	bench := xmark.NewBenchmark(factor)

	serialize := func(prep *engine.Prepared, width, degree int) (string, error) {
		sess := engine.NewSession()
		sess.BatchSize = width
		sess.Degree = degree
		var sb strings.Builder
		err := prep.SerializeSession(&sb, sess)
		return sb.String(), err
	}

	// Phase 1, unsharded: per system, the index-off scan reference vs the
	// indexed engine over the very same store at every width x degree.
	type cell struct {
		sys xmark.SystemID
		qid int
	}
	reference := map[cell]string{}
	instances, err := bench.LoadAll(systems)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range instances {
		scanOpts := inst.Engine.Options()
		scanOpts.FulltextIndex = false
		scanEng := engine.New(inst.Engine.Store(), scanOpts)
		for _, qid := range queryIDs {
			text := bench.QueryText(qid)
			sPrep, err := scanEng.Prepare(text)
			if err != nil {
				t.Fatalf("%s/Q%d scan prepare: %v", inst.System.ID, qid, err)
			}
			ref, err := serialize(sPrep, 1, 1)
			if err != nil {
				t.Fatalf("%s/Q%d scan: %v", inst.System.ID, qid, err)
			}
			reference[cell{inst.System.ID, qid}] = ref
			iPrep, err := inst.Engine.Prepare(text)
			if err != nil {
				t.Fatalf("%s/Q%d prepare: %v", inst.System.ID, qid, err)
			}
			for _, width := range []int{1, 0} {
				for _, degree := range []int{1, 8} {
					got, err := serialize(iPrep, width, degree)
					if err != nil {
						t.Fatalf("%s/Q%d width=%d degree=%d: %v", inst.System.ID, qid, width, degree, err)
					}
					if got != ref {
						t.Fatalf("%s/Q%d width=%d degree=%d: indexed output differs from scan\n got: %q\nwant: %q",
							inst.System.ID, qid, width, degree, got, ref)
					}
				}
			}
		}
	}

	// Phase 2, sharded: the coordinator's answer (each shard carrying its
	// own index over its own territory) against the same scan reference,
	// at sequential and parallel executor shapes. The executors run at the
	// default width, so each shard's own answer is also checked at width 1
	// against its default-width answer: with the coordinator's merge of the
	// default-width answers equal to the reference, the tuple-at-a-time
	// shards merge to it too.
	shapes := []service.Config{{Parallel: 1}, {Parallel: 8}}
	for _, nshards := range []int{1, 2, 4} {
		cat := loadCatalog(t, factor, nshards, systems)
		for _, sh := range cat.Shards {
			for _, s := range systems {
				for _, qid := range queryIDs {
					prep, err := sh.Catalog.Prepared(s.ID, qid)
					if err != nil {
						t.Fatalf("shard %d/%d %s/Q%d: %v", sh.Index, nshards, s.ID, qid, err)
					}
					tuple, err1 := serialize(prep, 1, 1)
					batch, err2 := serialize(prep, 0, 1)
					if err1 != nil || err2 != nil || tuple != batch {
						t.Fatalf("shard %d/%d %s/Q%d: width 1 %q (%v) differs from default width %q (%v)",
							sh.Index, nshards, s.ID, qid, tuple, err1, batch, err2)
					}
				}
			}
		}
		for _, exec := range shapes {
			co, err := NewCoordinator(cat, Config{Exec: exec})
			if err != nil {
				t.Fatalf("%d shards: %v", nshards, err)
			}
			for _, s := range systems {
				for _, qid := range queryIDs {
					res, err := co.Query(ctx, s.ID, qid)
					if err != nil {
						co.Close()
						t.Fatalf("%s/Q%d at %d shards (parallel=%d): %v", s.ID, qid, nshards, exec.Parallel, err)
					}
					if want := reference[cell{s.ID, qid}]; res.Output != want {
						co.Close()
						t.Fatalf("%s/Q%d at %d shards (parallel=%d): output differs from scan reference\n got: %q\nwant: %q",
							s.ID, qid, nshards, exec.Parallel, res.Output, want)
					}
				}
			}
			co.Close()
		}
	}
}
