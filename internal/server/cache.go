package server

import (
	"container/list"
	"encoding/binary"
	"hash/maphash"
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
	seed     maphash.Seed // picks a key's shard
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
	c.seed = maphash.MakeSeed()
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].m = make(map[string]*list.Element)
	}
	return c
}

// Get returns the cached response for key if it was stored at the
// current engine epoch. Stale entries are evicted on touch. The
// returned response is shared and must be treated as read-only.
func (c *resultCache) Get(key string, epoch uint64) (*must.Response, bool) {
	if c.perShard == 0 {
		c.misses.Add(1)
		return nil, false
	}
	sh := &c.shards[maphash.String(c.seed, key)%cacheShards]
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
	sh := &c.shards[maphash.String(c.seed, key)%cacheShards]
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
// results changes the key: k, l and patience are written whole, as 64
// bits. The key (~3 KB at 768 dimensions) is computed on every search,
// hit or miss, so it is written once into a builder grown to its exact
// size: no regrowth and no []byte-to-string copy.
func cacheKey(req *SearchRequest) string {
	names := make([]string, 0, len(req.Vectors))
	size := 3*8 + 3*4 // k, l, patience; flags, two counts
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
	var scratch [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:], v)
		b.Write(scratch[:4])
	}
	u64 := func(v int) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(v))
		b.Write(scratch[:])
	}
	str := func(s string) {
		u32(uint32(len(s)))
		b.WriteString(s)
	}

	u64(req.K)
	u64(req.L)
	u64(req.Patience)
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
