package server

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"must"
)

// resultCache is a sharded LRU over search responses, keyed on the
// exact bytes of the request body and stamped with the engine mutation
// epoch at lookup time. A hit needs no decode: a stored body was valid
// when it was stored, and the schema does not change. Only
// byte-identical bodies share an entry; re-spaced JSON or reordered
// keys miss and are searched afresh. Invalidation is O(1) and global:
// any insert, delete, weight change, or rebuild bumps the engine epoch,
// so every entry stamped with an older epoch reads as a miss (and is
// evicted on touch). Sharding keeps the per-shard mutex off the hot
// path under concurrent load.
type resultCache struct {
	shards [cacheShards]cacheShard
	// perShard is the entry capacity of each shard (total/cacheShards,
	// min 1); 0 disables the cache entirely.
	perShard int
	// maxKey bounds a key's length: a longer body misses and is never
	// stored, so whitespace padding cannot make a key of megabytes.
	maxKey int
	seed   maphash.Seed // picks a key's shard
	hits   atomic.Uint64
	misses atomic.Uint64
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

// A search body spends about 12 bytes per dimension as json.Marshal
// writes float32s and about 21 as Python's json.dumps does;
// keyBytesPerDim leaves room for either, and keyBytesSlack for the
// scalar fields, the weights and whitespace.
const (
	keyBytesPerDim = 32
	keyBytesSlack  = 4 << 10
)

// maxCacheKey is the longest body a cache over schema stores.
func maxCacheKey(schema must.Schema) int {
	n := keyBytesSlack
	for _, m := range schema {
		n += keyBytesPerDim*m.Dim + 2*len(m.Name)
	}
	return n
}

// newResultCache builds a cache holding ~capacity responses across all
// shards, each under a key of at most maxKey bytes; capacity ≤ 0
// returns a disabled cache (every lookup misses).
func newResultCache(capacity, maxKey int) *resultCache {
	c := &resultCache{maxKey: maxKey}
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
// current engine epoch; key is not retained. Stale entries are evicted
// on touch. The returned response is shared and must be treated as
// read-only.
func (c *resultCache) Get(key []byte, epoch uint64) (*must.Response, bool) {
	if c.perShard == 0 || len(key) > c.maxKey {
		c.misses.Add(1)
		return nil, false
	}
	sh := &c.shards[maphash.Bytes(c.seed, key)%cacheShards]
	sh.mu.Lock()
	el, ok := sh.m[string(key)] // no copy: the conversion is only compared
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch {
		sh.ll.Remove(el)
		delete(sh.m, ent.key)
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

// Put stores a response computed at the given engine epoch under a copy
// of key; a key longer than maxKey is not stored. If the engine has
// mutated since the caller read the epoch, the entry is stored stamped
// with the old epoch and the next Get evicts it — stale results are
// never served.
func (c *resultCache) Put(key []byte, epoch uint64, resp *must.Response) {
	if c.perShard == 0 || len(key) > c.maxKey {
		return
	}
	sh := &c.shards[maphash.Bytes(c.seed, key)%cacheShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[string(key)]; ok {
		ent := el.Value.(*cacheEntry)
		ent.epoch = epoch
		ent.resp = resp
		sh.ll.MoveToFront(el)
		return
	}
	k := string(key)
	sh.m[k] = sh.ll.PushFront(&cacheEntry{key: k, epoch: epoch, resp: resp})
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
