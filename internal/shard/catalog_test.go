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
