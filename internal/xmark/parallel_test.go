package xmark

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestParallelByteIdentical is the correctness anchor of the morsel-style
// intra-query parallelism: every one of the twenty benchmark queries on
// every one of the seven system architectures must serialize to exactly
// the same bytes at parallel degrees 1, 2 and 8 as under sequential
// evaluation. It runs in the CI race job, so the partition workers'
// sharing discipline is race-checked alongside the concurrent service.
func TestParallelByteIdentical(t *testing.T) {
	b := bench(t, 0.005)
	instances, err := b.LoadAll(Systems())
	if err != nil {
		t.Fatal(err)
	}
	degrees := []int{1, 2, 8}
	for _, inst := range instances {
		for _, q := range Queries() {
			prep, err := inst.Engine.Prepare(b.QueryText(q.ID))
			if err != nil {
				t.Fatalf("Q%d system %s: %v", q.ID, inst.System.ID, err)
			}
			var want strings.Builder
			if err := prep.Serialize(&want); err != nil {
				t.Fatalf("Q%d system %s: %v", q.ID, inst.System.ID, err)
			}
			for _, degree := range degrees {
				sess := engine.NewSession()
				sess.Degree = degree
				var got strings.Builder
				if err := prep.SerializeSession(&got, sess); err != nil {
					t.Fatalf("Q%d system %s degree %d: %v", q.ID, inst.System.ID, degree, err)
				}
				if got.String() != want.String() {
					t.Errorf("Q%d system %s degree %d: output differs from sequential (%d vs %d bytes)",
						q.ID, inst.System.ID, degree, got.Len(), want.Len())
				}
			}
		}
	}
}
