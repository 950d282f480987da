package server

import (
	"container/list"
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"must"
)

// resultCache is a sharded LRU over search responses, keyed on a
// canonical serialization of the query and stamped with the engine
// mutation epoch at lookup time. Invalidation is O(1) and global: any
// insert, delete, weight change, or rebuild bumps the engine epoch, so
// every entry stamped with an older epoch reads as a miss (and is
// evicted on touch). Sharding keeps the per-shard mutex off the hot
// path under concurrent load.
type resultCache struct {
	shards [cacheShards]cacheShard
	// perShard is the entry capacity of each shard (total/cacheShards,
	// min 1); 0 disables the cache entirely.
	perShard int
	hits     atomic.Uint64
	misses   atomic.Uint64
}

const cacheShards = 16

type cacheShard struct {
	mu sync.Mutex
	ll *list.List // front = most recently used
	m  map[string]*list.Element
}

type cacheEntry struct {
	key   string
	epoch uint64
	resp  *must.Response
}

// newResultCache builds a cache holding ~capacity responses across all
// shards; capacity ≤ 0 returns a disabled cache (every lookup misses).
func newResultCache(capacity int) *resultCache {
	c := &resultCache{}
	if capacity <= 0 {
		return c
	}
	c.perShard = (capacity + cacheShards - 1) / cacheShards
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].m = make(map[string]*list.Element)
	}
	return c
}

// fnv1a64 is inlined here (instead of hash/fnv) to hash the key without
// allocating a hasher per lookup.
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Get returns the cached response for key if it was stored at the
// current engine epoch. Stale entries are evicted on touch. The
// returned response is shared and must be treated as read-only.
func (c *resultCache) Get(key string, epoch uint64) (*must.Response, bool) {
	if c.perShard == 0 {
		c.misses.Add(1)
		return nil, false
	}
	sh := &c.shards[fnv1a64(key)%cacheShards]
	sh.mu.Lock()
	el, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch {
		sh.ll.Remove(el)
		delete(sh.m, key)
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	sh.ll.MoveToFront(el)
	resp := ent.resp // Put replaces it in place under the lock
	sh.mu.Unlock()
	c.hits.Add(1)
	return resp, true
}

// Put stores a response computed at the given engine epoch. If the
// engine has mutated since the caller read the epoch, the entry is
// stored stamped with the old epoch and the next Get evicts it — stale
// results are never served.
func (c *resultCache) Put(key string, epoch uint64, resp *must.Response) {
	if c.perShard == 0 {
		return
	}
	sh := &c.shards[fnv1a64(key)%cacheShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.epoch = epoch
		ent.resp = resp
		sh.ll.MoveToFront(el)
		return
	}
	sh.m[key] = sh.ll.PushFront(&cacheEntry{key: key, epoch: epoch, resp: resp})
	if sh.ll.Len() > c.perShard {
		lru := sh.ll.Back()
		sh.ll.Remove(lru)
		delete(sh.m, lru.Value.(*cacheEntry).key)
	}
}

// Len reports the live entry count across shards (stale entries
// included until touched).
func (c *resultCache) Len() int {
	if c.perShard == 0 {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Counters returns the lifetime hit/miss totals.
func (c *resultCache) Counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// cacheKey canonicalizes a search request into a byte-exact string key:
// scalar parameters, then weight overrides sorted by name, then vectors
// sorted by name with raw IEEE-754 bits. Two requests that search
// identically always produce the same key; any parameter that changes
// results changes the key. The key (~3 KB at 768 dimensions) is computed
// on every search, hit or miss, so it is written once into a builder
// grown to its exact size: no regrowth and no []byte-to-string copy.
func cacheKey(req *SearchRequest) string {
	names := make([]string, 0, len(req.Vectors))
	size := 6 * 4 // k, l, patience, flags, two counts
	for name, v := range req.Vectors {
		names = append(names, name)
		size += 4 + len(name) + 4 + 4*len(v)
	}
	sort.Strings(names)
	wnames := make([]string, 0, len(req.Weights))
	for name := range req.Weights {
		wnames = append(wnames, name)
		size += 4 + len(name) + 4
	}
	sort.Strings(wnames)

	var b strings.Builder
	b.Grow(size)
	var scratch [4]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:], v)
		b.Write(scratch[:])
	}
	str := func(s string) {
		u32(uint32(len(s)))
		b.WriteString(s)
	}

	u32(uint32(req.K))
	u32(uint32(req.L))
	u32(uint32(req.Patience))
	flags := uint32(0)
	if req.DisableOptimization {
		flags = 1
	}
	u32(flags)

	u32(uint32(len(wnames)))
	for _, name := range wnames {
		str(name)
		u32(math.Float32bits(req.Weights[name]))
	}

	u32(uint32(len(names)))
	for _, name := range names {
		str(name)
		v := req.Vectors[name]
		u32(uint32(len(v)))
		for _, x := range v {
			u32(math.Float32bits(x))
		}
	}
	return b.String()
}
