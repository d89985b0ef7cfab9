// Package server exposes any pll.Oracle over an HTTP/JSON API: the
// query surface (/distance, /path, /batch), operational endpoints
// (/stats, /healthz) and the mutation endpoints (/update for dynamic
// indexes, /reload for atomic index hot-swap). cmd/pllserved is the
// thin binary around it.
package server

import (
	"sync"
	"sync/atomic"
)

// numShards spreads cache locks so concurrent readers on different
// keys rarely contend; must be a power of two.
const numShards = 16

// lru is the sharded fixed-capacity LRU behind both server caches:
//
//   - the pair cache, lru[uint64, int64], maps a packed (s,t) query
//     pair to its distance;
//   - the result cache, lru[string, []byte], maps a canonicalized /knn
//     or /query request ("knn:s=3&k=8", "query:" + canonical JSON) to
//     its exact response bytes, so a repeated search skips the merge
//     or constraint scan.
//
// Distance queries are microseconds, so a cache only pays off under
// heavy repetition of hot keys — exactly the serving workload — and it
// must never become the bottleneck itself: each shard has its own lock
// and a hand-rolled intrusive LRU list over a flat entry slice (no
// container/list allocations on the hot path).
//
// An epoch counter makes purges race-free: a put carries the epoch the
// caller observed *before* computing its answer, and the shard rejects
// it if a purge has bumped the epoch since. Without this, a slow
// request could compute an answer, lose the race with an /update or
// /reload purge, and then deposit the stale answer into the fresh
// cache, serving it forever.
//
// A nil *lru is a disabled cache: every method is a no-op.
type lru[K comparable, V any] struct {
	shards [numShards]lruShard[K, V]
	hash   func(K) uint64 // the shard is its low bits
	epoch  atomic.Uint64
}

type lruShard[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]int // key -> slot in slab
	slab    []lruEntry[K, V]
	head    int // most recently used slot, -1 if empty
	tail    int // least recently used slot, -1 if empty
	cap     int
}

type lruEntry[K comparable, V any] struct {
	key        K
	value      V
	prev, next int // intrusive LRU links, -1 terminated
}

// tally counts one cached surface's hits and misses. The result cache
// serves two endpoints, so callers pass the tally of theirs to get.
type tally struct {
	hits, misses atomic.Int64
}

// counts renders the tally for /stats.
func (t *tally) counts() map[string]int64 {
	return map[string]int64{"hits": t.hits.Load(), "misses": t.misses.Load()}
}

// newLRU returns a cache holding about capacity entries in total, or
// nil when capacity <= 0 (caching disabled). Both caches take their
// capacity from Config.CacheSize: one knob bounds both.
func newLRU[K comparable, V any](capacity int, hash func(K) uint64) *lru[K, V] {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + numShards - 1) / numShards
	c := &lru[K, V]{hash: hash}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].reset()
	}
	return c
}

// pairKey packs an (s,t) query pair into one pair-cache key.
func pairKey(s, t int32) uint64 { return uint64(uint32(s))<<32 | uint64(uint32(t)) }

// mixPair mixes a pair key before the shard pick takes its low bits,
// so pairs sharing a target don't pile onto one shard.
func mixPair(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key
}

// fnv1a hashes a result-cache key.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *lru[K, V]) shardOf(key K) *lruShard[K, V] {
	return &c.shards[c.hash(key)&(numShards-1)]
}

// get returns the value cached under key and whether it was present,
// counting the lookup in t and refreshing recency. A cached []byte is
// shared: callers only write it to the wire, never mutate it.
func (c *lru[K, V]) get(key K, t *tally) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	slot, ok := sh.entries[key]
	if ok {
		sh.moveToFront(slot)
		v = sh.slab[slot].value
	}
	sh.mu.Unlock()
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return v, ok
}

// currentEpoch returns the value to pass to put; capture it before
// running the query the result describes.
func (c *lru[K, V]) currentEpoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// put records the value for key computed while epoch was current,
// evicting the least recently used entry of the shard when it is full.
// A put whose epoch a purge has since invalidated is dropped.
func (c *lru[K, V]) put(epoch uint64, key K, v V) {
	if c == nil {
		return
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.epoch.Load() != epoch {
		return
	}
	if slot, ok := sh.entries[key]; ok {
		sh.slab[slot].value = v
		sh.moveToFront(slot)
		return
	}
	var slot int
	if len(sh.slab) < sh.cap {
		sh.slab = append(sh.slab, lruEntry[K, V]{})
		slot = len(sh.slab) - 1
	} else {
		slot = sh.tail
		sh.unlink(slot)
		delete(sh.entries, sh.slab[slot].key)
	}
	sh.slab[slot] = lruEntry[K, V]{key: key, value: v, prev: -1, next: -1}
	sh.pushFront(slot)
	sh.entries[key] = slot
}

// purge empties the cache; called when the index mutates (update or
// hot-reload) so stale answers can never be served. The epoch bump
// happens first, so any in-flight put that computed its answer against
// the pre-mutation index is rejected when it reaches its shard —
// whether that is before or after the shard is cleared below.
func (c *lru[K, V]) purge() {
	if c == nil {
		return
	}
	c.epoch.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
}

// reset empties the shard, reusing its slab. The map is replaced with
// no size hint: one sized for the shard's capacity would cost every
// purge a capacity-sized allocation, and /update purges on every
// insert. It regrows as entries arrive.
func (sh *lruShard[K, V]) reset() {
	sh.entries = make(map[K]int)
	sh.slab = sh.slab[:0]
	sh.head, sh.tail = -1, -1
}

// len reports the number of cached entries across all shards.
func (c *lru[K, V]) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// capacity reports the effective entry bound: the configured size
// rounded up to numShards × perShard (newLRU splits the budget evenly,
// so 100 becomes 16×7 = 112).
func (c *lru[K, V]) capacity() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		n += c.shards[i].cap
	}
	return n
}

// unlink removes slot from the LRU list (caller holds the lock).
func (sh *lruShard[K, V]) unlink(slot int) {
	e := &sh.slab[slot]
	if e.prev >= 0 {
		sh.slab[e.prev].next = e.next
	} else {
		sh.head = e.next
	}
	if e.next >= 0 {
		sh.slab[e.next].prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

// pushFront makes slot the most recently used (caller holds the lock).
func (sh *lruShard[K, V]) pushFront(slot int) {
	e := &sh.slab[slot]
	e.prev, e.next = -1, sh.head
	if sh.head >= 0 {
		sh.slab[sh.head].prev = slot
	}
	sh.head = slot
	if sh.tail < 0 {
		sh.tail = slot
	}
}

// moveToFront refreshes recency for slot (caller holds the lock).
func (sh *lruShard[K, V]) moveToFront(slot int) {
	if sh.head == slot {
		return
	}
	sh.unlink(slot)
	sh.pushFront(slot)
}
