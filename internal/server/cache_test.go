package server

import (
	"strconv"
	"sync"
	"testing"
)

// cacheUnderTest drives one lru instantiation through int keys and
// values, so each TestPairCache* test runs against both caches the
// server keeps: the pair cache and the string-keyed result cache.
type cacheUnderTest struct {
	get   func(k int) (v int, ok bool)
	put   func(epoch uint64, k, v int)
	epoch func() uint64
	purge func()
	len   func() int
	shard func(k int) uint64 // the shard k lands in
	tally *tally
}

func adapt[K comparable, V any](c *lru[K, V], key func(int) K, val func(int) V, unval func(V) int) cacheUnderTest {
	t := new(tally)
	return cacheUnderTest{
		get: func(k int) (int, bool) {
			v, ok := c.get(key(k), t)
			if !ok {
				return 0, false
			}
			return unval(v), true
		},
		put:   func(epoch uint64, k, v int) { c.put(epoch, key(k), val(v)) },
		epoch: c.currentEpoch,
		purge: c.purge,
		len:   c.len,
		shard: func(k int) uint64 { return c.hash(key(k)) & (numShards - 1) },
		tally: t,
	}
}

// cacheKinds builds each server cache at a given capacity.
var cacheKinds = []struct {
	name string
	make func(capacity int) cacheUnderTest
}{
	{"pair", func(capacity int) cacheUnderTest {
		return adapt(newLRU[uint64, int64](capacity, mixPair),
			func(k int) uint64 { return pairKey(0, int32(k)) },
			func(v int) int64 { return int64(v) },
			func(v int64) int { return int(v) })
	}},
	{"result", func(capacity int) cacheUnderTest {
		return adapt(newLRU[string, []byte](capacity, fnv1a),
			func(k int) string { return queryCacheKeyKNN(int32(k), 8) },
			func(v int) []byte { return []byte(strconv.Itoa(v)) },
			func(v []byte) int { n, _ := strconv.Atoi(string(v)); return n })
	}},
}

// forEachCache runs f as one subtest per cache kind.
func forEachCache(t *testing.T, capacity int, f func(t *testing.T, c cacheUnderTest)) {
	for _, kind := range cacheKinds {
		t.Run(kind.name, func(t *testing.T) { f(t, kind.make(capacity)) })
	}
}

// collidingKeys returns n keys that land in one shard.
func collidingKeys(t *testing.T, c cacheUnderTest, n int) []int {
	t.Helper()
	var same []int
	for k := 0; len(same) < n && k < 1<<16; k++ {
		if c.shard(k) == c.shard(0) {
			same = append(same, k)
		}
	}
	if len(same) < n {
		t.Fatal("could not find colliding keys")
	}
	return same
}

func TestPairCacheBasics(t *testing.T) {
	forEachCache(t, 64, func(t *testing.T, c cacheUnderTest) {
		if _, ok := c.get(1); ok {
			t.Fatal("empty cache reported a hit")
		}
		c.put(c.epoch(), 1, 7)
		if v, ok := c.get(1); !ok || v != 7 {
			t.Fatalf("get(1) = %d,%v", v, ok)
		}
		if _, ok := c.get(2); ok {
			t.Fatal("a distinct key should miss")
		}
		if hits, misses := c.tally.hits.Load(), c.tally.misses.Load(); hits != 1 || misses != 2 {
			t.Fatalf("tally = %d hits, %d misses", hits, misses)
		}
		c.put(c.epoch(), 1, 9) // overwrite
		if v, _ := c.get(1); v != 9 {
			t.Fatalf("overwrite lost: %d", v)
		}
		if c.len() != 1 {
			t.Fatalf("len = %d", c.len())
		}
	})
	// (s,t) and (t,s) are distinct keys (directed indexes are
	// asymmetric).
	if pairKey(1, 2) == pairKey(2, 1) {
		t.Fatal("reversed pair shares a key")
	}
}

func TestPairCacheDisabled(t *testing.T) {
	// A nil cache is disabled: every operation is a no-op, and its
	// lookups are not counted.
	forEachCache(t, 0, func(t *testing.T, c cacheUnderTest) {
		c.put(c.epoch(), 1, 3)
		if _, ok := c.get(1); ok {
			t.Fatal("disabled cache hit")
		}
		c.purge()
		if c.len() != 0 {
			t.Fatal("disabled cache has entries")
		}
		if hits, misses := c.tally.hits.Load(), c.tally.misses.Load(); hits != 0 || misses != 0 {
			t.Fatalf("disabled cache counted %d hits, %d misses", hits, misses)
		}
	})
	if newLRU[uint64, int64](0, mixPair) != nil || newLRU[string, []byte](0, fnv1a) != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
}

func TestPairCacheEvictsLRU(t *testing.T) {
	// One entry per shard: inserting a second key into a shard evicts
	// the older one, and a get refreshes recency.
	forEachCache(t, numShards, func(t *testing.T, c cacheUnderTest) {
		same := collidingKeys(t, c, 3)
		c.put(c.epoch(), same[0], 10)
		c.put(c.epoch(), same[1], 11) // evicts same[0]
		if _, ok := c.get(same[0]); ok {
			t.Fatal("LRU entry survived eviction")
		}
		if v, ok := c.get(same[1]); !ok || v != 11 {
			t.Fatalf("newest entry missing: %d,%v", v, ok)
		}
		c.put(c.epoch(), same[2], 12) // evicts same[1]
		if _, ok := c.get(same[1]); ok {
			t.Fatal("expected eviction of the older entry")
		}
	})
}

func TestPairCacheRecencyOrder(t *testing.T) {
	forEachCache(t, 2*numShards, func(t *testing.T, c cacheUnderTest) { // two entries per shard
		same := collidingKeys(t, c, 3)
		c.put(c.epoch(), same[0], 10)
		c.put(c.epoch(), same[1], 11)
		c.get(same[0])                // refresh [0]: now [1] is LRU
		c.put(c.epoch(), same[2], 12) // must evict [1]
		if _, ok := c.get(same[0]); !ok {
			t.Fatal("refreshed entry was evicted")
		}
		if _, ok := c.get(same[1]); ok {
			t.Fatal("stale entry survived")
		}
	})
}

func TestPairCachePurge(t *testing.T) {
	forEachCache(t, 64, func(t *testing.T, c cacheUnderTest) {
		for k := 0; k < 32; k++ {
			c.put(c.epoch(), k, k)
		}
		if c.len() == 0 {
			t.Fatal("expected entries before purge")
		}
		c.purge()
		if c.len() != 0 {
			t.Fatalf("len after purge = %d", c.len())
		}
		if _, ok := c.get(3); ok {
			t.Fatal("purged entry still present")
		}
		// The cache must be reusable after purge, up to its capacity.
		for k := 0; k < 32; k++ {
			c.put(c.epoch(), k, k+1)
		}
		if v, ok := c.get(3); !ok || v != 4 {
			t.Fatalf("post-purge put/get = %d,%v", v, ok)
		}
	})
}

// TestPairCacheStalePutRejected models the purge race: a request
// captures the epoch, computes its answer against the pre-mutation
// index, and only deposits it after a purge has run. The deposit must
// be dropped, or the stale answer would be served forever.
func TestPairCacheStalePutRejected(t *testing.T) {
	forEachCache(t, 64, func(t *testing.T, c cacheUnderTest) {
		epoch := c.epoch()
		c.purge() // index mutated while the request was computing
		c.put(epoch, 1, 99)
		if _, ok := c.get(1); ok {
			t.Fatal("stale put survived a purge")
		}
		// A put with the fresh epoch works.
		c.put(c.epoch(), 1, 1)
		if v, ok := c.get(1); !ok || v != 1 {
			t.Fatalf("fresh put lost: %d,%v", v, ok)
		}
	})
}

// TestPairCacheConcurrent exercises all shards from many goroutines;
// meaningful under -race.
func TestPairCacheConcurrent(t *testing.T) {
	forEachCache(t, 256, func(t *testing.T, c cacheUnderTest) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					s, t32 := (seed+i)%64, (seed+2*i)%64
					k := s*64 + t32
					if v, ok := c.get(k); ok && v != s+t32 {
						t.Errorf("corrupted value for (%d,%d): %d", s, t32, v)
						return
					}
					c.put(c.epoch(), k, s+t32)
					if i%97 == 0 && seed == 0 {
						c.purge()
					}
				}
			}(w)
		}
		wg.Wait()
	})
}
