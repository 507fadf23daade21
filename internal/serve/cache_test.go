package serve

import (
	"fmt"
	"sync"
	"testing"

	"rnknn/pkg/rnknn"
)

func res(vals ...int32) []rnknn.Result {
	out := make([]rnknn.Result, len(vals))
	for i, v := range vals {
		out[i] = rnknn.Result{Vertex: v, Dist: int64(v) * 10}
	}
	return out
}

func TestCacheHitMissAndEpochSeparation(t *testing.T) {
	c := newResultCache(64)
	k0 := cacheKey{vertex: 7, k: 5, epoch: 0, category: "poi"}
	if _, ok := c.get(k0); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(k0, res(1, 2))
	got, ok := c.get(k0)
	if !ok || len(got) != 2 || got[0].Vertex != 1 {
		t.Fatalf("get after put: %v %v", got, ok)
	}
	// The same query at a later epoch is a different key: a mutation
	// invalidates by making old keys unreachable, not by deleting them.
	k1 := k0
	k1.epoch = 1
	if _, ok := c.get(k1); ok {
		t.Fatal("epoch-bumped key hit a stale entry")
	}
	c.put(k1, res(3))
	if got, _ := c.get(k1); len(got) != 1 || got[0].Vertex != 3 {
		t.Fatalf("epoch 1 entry: %v", got)
	}
	if got, _ := c.get(k0); len(got) != 2 {
		t.Fatalf("epoch 0 entry clobbered: %v", got)
	}
	// Distinct categories and k values separate too.
	for _, k := range []cacheKey{
		{vertex: 7, k: 6, epoch: 0, category: "poi"},
		{vertex: 7, k: 5, epoch: 0, category: "fuel"},
		{vertex: 8, k: 5, epoch: 0, category: "poi"},
	} {
		if _, ok := c.get(k); ok {
			t.Fatalf("key %+v aliased", k)
		}
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 3 || m != 5 {
		t.Fatalf("hits=%d misses=%d, want 3/5", h, m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard of capacity 4 keeps eviction order observable.
	c := newResultCache(1)
	c.shards[0].cap = 4
	key := func(i int) cacheKey { return cacheKey{vertex: int32(i), k: 1, category: "c"} }
	for i := 0; i < 4; i++ {
		c.put(key(i), res(int32(i)))
	}
	// Touch 0 so 1 is now least recent.
	if _, ok := c.get(key(0)); !ok {
		t.Fatal("key 0 missing")
	}
	c.put(key(4), res(4))
	if _, ok := c.get(key(1)); ok {
		t.Fatal("least-recent key 1 survived eviction")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if _, ok := c.get(key(i)); !ok {
			t.Fatalf("key %d evicted out of order", i)
		}
	}
	if c.evictions.Load() != 1 || c.len() != 4 {
		t.Fatalf("evictions=%d len=%d", c.evictions.Load(), c.len())
	}
	// Overwriting an existing key must not evict or grow.
	c.put(key(4), res(40))
	if got, _ := c.get(key(4)); len(got) != 1 || got[0].Vertex != 40 {
		t.Fatalf("overwrite lost: %v", got)
	}
	if c.len() != 4 || c.evictions.Load() != 1 {
		t.Fatalf("overwrite changed occupancy: len=%d evictions=%d", c.len(), c.evictions.Load())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	k := cacheKey{vertex: 1, k: 1}
	c.put(k, res(1))
	if _, ok := c.get(k); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.len() != 0 {
		t.Fatalf("disabled cache holds %d entries", c.len())
	}
}

func TestCacheShardSizing(t *testing.T) {
	for _, tc := range []struct{ capacity, wantShards int }{
		{4096, 16},
		{8, 8}, // shards cut down to capacity
		{1, 1}, // minimum one shard, one entry
		{3, 2}, // power of two not above capacity
	} {
		c := newResultCache(tc.capacity)
		if len(c.shards) != tc.wantShards {
			t.Errorf("newResultCache(%d): %d shards, want %d", tc.capacity, len(c.shards), tc.wantShards)
		}
	}
}

// TestCacheConcurrent hammers all operations; run under -race this is the
// shard-locking proof.
func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := cacheKey{vertex: int32(i % 97), k: int32(w%3 + 1), epoch: uint64(i % 5), category: "c"}
				if i%3 == 0 {
					c.put(k, res(int32(i%97)))
				} else if got, ok := c.get(k); ok {
					if len(got) != 1 || got[0].Vertex != int32(i%97) {
						panic(fmt.Sprintf("corrupt entry for %+v: %v", k, got))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.len() > 128 {
		t.Fatalf("cache over capacity: %d", c.len())
	}
}
