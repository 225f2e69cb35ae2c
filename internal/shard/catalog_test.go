package shard

import (
	"testing"

	"repro/internal/nodestore"
)

// TestShardTerritories pins the territory invariant on a real sharded
// load: every shard owns a half-open pre-order NodeID range of the
// unsharded document, the ranges ascend and never overlap, and shard
// order is document order.
func TestShardTerritories(t *testing.T) {
	cat := loadCatalog(t, 0.002, 4, sysD(t))
	if len(cat.Shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(cat.Shards))
	}
	ts := make([]nodestore.Territory, len(cat.Shards))
	total := 0
	for i, sh := range cat.Shards {
		if sh.Index != i {
			t.Errorf("shard %d carries index %d", i, sh.Index)
		}
		if sh.Entities == 0 {
			t.Errorf("shard %d owns no entities at this factor", i)
		}
		if sh.DocBytes == 0 {
			t.Errorf("shard %d has an empty document", i)
		}
		ts[i] = sh.Territory
		total += sh.Entities
	}
	if err := nodestore.CheckTerritories(ts); err != nil {
		t.Fatalf("territories violate the invariant: %v", err)
	}
	if total == 0 {
		t.Fatal("no entities distributed")
	}
}

func TestCoordinatorStatus(t *testing.T) {
	cat := loadCatalog(t, 0.002, 4, sysD(t))
	co, err := NewCoordinator(cat, Config{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	st := co.Status()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("status shards = %d/%d, want 4/4", st.Shards, len(st.PerShard))
	}
	if st.Policy != "fail-fast" || st.Retries != 2 {
		t.Fatalf("status policy/retries = %q/%d", st.Policy, st.Retries)
	}
	for q, mode := range map[string]string{"Q1": "concat", "Q5": "sum", "Q8": "none"} {
		if st.MergeModes[q] != mode {
			t.Errorf("status merge mode %s = %q, want %q", q, st.MergeModes[q], mode)
		}
	}
	for i, sh := range st.PerShard {
		if sh.TerritoryLo > sh.TerritoryHi {
			t.Errorf("shard %d territory inverted: [%d,%d)", i, sh.TerritoryLo, sh.TerritoryHi)
		}
	}
}
