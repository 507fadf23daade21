package serve

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"rnknn/pkg/rnknn"
)

// cacheKey identifies one cacheable answer — kNN or range: the query, the
// category, and — the part that makes invalidation exact and free — the
// category's epoch. Object churn advances the epoch, so every mutation
// silently retires all cached answers for that category: readers compute
// lookup keys from the live epoch and can no longer reach entries stamped
// with a superseded one. No TTLs, no eviction protocol, no stale reads —
// retired entries simply age out of the LRU.
//
// The two query shapes share the key space disjointly: kNN entries carry
// radius -1 (k >= 1), range entries carry k 0 (radius >= 0), so neither can
// ever collide with or shadow the other.
type cacheKey struct {
	vertex   int32
	k        int32
	radius   int64
	epoch    uint64
	category string
}

// cacheEntry is one stored answer. results is immutable after insertion:
// hits hand the same slice to any number of concurrent encoders, so nothing
// downstream may mutate it.
type cacheEntry struct {
	key     cacheKey
	results []rnknn.Result
	// prev/next chain the shard's LRU ring (older toward tail).
	prev, next *cacheEntry
}

// resultCache is the sharded LRU over cacheEntry. Sharding by key hash
// keeps the per-request critical section to one shard mutex, so cache
// bookkeeping never serializes the whole read path.
type resultCache struct {
	shards []cacheShard
	seed   maphash.Seed

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// cacheShard is one lock + map + intrusive LRU ring. head is most recent;
// sentinel-free: empty shard has nil head/tail.
type cacheShard struct {
	mu         sync.Mutex
	entries    map[cacheKey]*cacheEntry
	head, tail *cacheEntry
	cap        int
}

// cacheShards is the cache's lock-shard count (a power of two; nothing to
// do with a shard set's partition cells).
const cacheShards = 16

// newResultCache sizes a cache for capacity total entries across
// cacheShards shards — cut down to the largest power of two not above a
// smaller capacity, which is then divided evenly. capacity <= 0 disables
// caching: every lookup misses and stores are dropped.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return &resultCache{seed: maphash.MakeSeed()}
	}
	n := cacheShards
	if n > capacity {
		n = 1
		for n*2 <= capacity {
			n <<= 1
		}
	}
	per := capacity / n
	c := &resultCache{shards: make([]cacheShard, n), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*cacheEntry)
		c.shards[i].cap = per
	}
	return c
}

func (c *resultCache) shard(key cacheKey) *cacheShard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	var b [24]byte
	b[0] = byte(key.vertex)
	b[1] = byte(key.vertex >> 8)
	b[2] = byte(key.vertex >> 16)
	b[3] = byte(key.vertex >> 24)
	b[4] = byte(key.k)
	b[5] = byte(key.k >> 8)
	b[6] = byte(key.k >> 16)
	b[7] = byte(key.k >> 24)
	for i := 0; i < 8; i++ {
		b[8+i] = byte(key.radius >> (8 * i))
		b[16+i] = byte(key.epoch >> (8 * i))
	}
	h.Write(b[:])
	h.WriteString(key.category)
	return &c.shards[h.Sum64()&uint64(len(c.shards)-1)]
}

// get returns the cached results for key, promoting the entry to most
// recent. The returned slice is shared and must not be mutated.
func (c *resultCache) get(key cacheKey) ([]rnknn.Result, bool) {
	if len(c.shards) == 0 {
		c.misses.Add(1)
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.moveToFront(e)
	res := e.results
	s.mu.Unlock()
	c.hits.Add(1)
	return res, true
}

// put stores results under key (ownership of the slice passes to the
// cache), evicting the shard's least-recent entry on overflow.
func (c *resultCache) put(key cacheKey, results []rnknn.Result) {
	if len(c.shards) == 0 {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		// A raced request already stored this answer; the epoch in the key
		// guarantees both computed it from the same object set, so keeping
		// either is correct.
		e.results = results
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e := &cacheEntry{key: key, results: results}
	s.entries[key] = e
	s.pushFront(e)
	var evicted bool
	if len(s.entries) > s.cap {
		old := s.tail
		s.unlink(old)
		delete(s.entries, old.key)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// len reports the live entry count across shards.
func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
