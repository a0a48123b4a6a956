package demand

import (
	"testing"

	"repro/internal/logs"
)

// TestSimulateParallelMatchesSerial is the sharding correctness
// contract: for any shard count, the merged estimates equal the serial
// single-aggregator fold of the same simulated stream, exactly.
func TestSimulateParallelMatchesSerial(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 300)
	cfg := SimConfig{Events: 30000, Cookies: 6000, Seed: 9}

	serial := NewAggregator(cat)
	if err := Simulate(cat, cfg, func(c logs.Click) error {
		serial.Add(c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 3, 8, 16} {
		sa, err := simulateParallel(cat, cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Shards() != shards {
			t.Fatalf("shards = %d, want %d", sa.Shards(), shards)
		}
		for _, src := range []logs.Source{logs.Search, logs.Browse} {
			want := serial.Demand(src)
			got := sa.Demand(src)
			if len(got) != len(want) {
				t.Fatalf("shards=%d %s: %d estimates, want %d", shards, src, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d %s entity %d: %+v, want %+v", shards, src, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardRoutingIsStable: localize, the routers' entity-to-shard
// map, is a pure function of the entity for power-of-two and other
// shard counts alike, lands in range, and its local index maps back to
// the global entity.
func TestShardRoutingIsStable(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 100)
	for _, shards := range []int{4, 7} {
		sa := NewShardedAggregator(cat, shards)
		for e := range cat.Entities {
			r := ClickRef{Entity: int32(e)}
			s := sa.localize(&r)
			if s < 0 || s >= shards {
				t.Fatalf("shards=%d entity %d: shard %d out of range", shards, e, s)
			}
			if got := int(r.Entity)*shards + s; got != e {
				t.Fatalf("shards=%d entity %d: local index %d maps back to %d", shards, e, r.Entity, got)
			}
			again := ClickRef{Entity: int32(e)}
			if sa.localize(&again) != s {
				t.Fatalf("shards=%d: routing for entity %d not stable", shards, e)
			}
		}
	}
}

func TestNewShardedAggregatorClampsShards(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 10)
	if got := NewShardedAggregator(cat, 0).Shards(); got != 1 {
		t.Errorf("shards=0 clamped to %d, want 1", got)
	}
	if got := NewShardedAggregator(cat, -4).Shards(); got != 1 {
		t.Errorf("shards=-4 clamped to %d, want 1", got)
	}
}
