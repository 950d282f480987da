package server

import (
	"testing"

	"must"
)

func req(seed float32) *SearchRequest {
	return &SearchRequest{
		Vectors: map[string][]float32{"image": {seed, 1, 2}, "text": {3, 4}},
		K:       5,
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	// Same logical request, maps built in different insertion orders.
	a := &SearchRequest{
		Vectors: map[string][]float32{"image": {1, 2}, "text": {3}},
		Weights: map[string]float32{"image": 0.5, "text": 0.25},
		K:       7, L: 40,
	}
	b := &SearchRequest{K: 7, L: 40}
	b.Weights = map[string]float32{}
	b.Weights["text"] = 0.25
	b.Weights["image"] = 0.5
	b.Vectors = map[string][]float32{}
	b.Vectors["text"] = []float32{3}
	b.Vectors["image"] = []float32{1, 2}
	if cacheKey(a) != cacheKey(b) {
		t.Fatal("identical requests produced different keys")
	}
	// Every result-affecting parameter must change the key.
	variants := []*SearchRequest{
		{Vectors: a.Vectors, Weights: a.Weights, K: 8, L: 40},
		{Vectors: a.Vectors, Weights: a.Weights, K: 7, L: 41},
		{Vectors: a.Vectors, Weights: a.Weights, K: 7, L: 40, Patience: 3},
		{Vectors: a.Vectors, Weights: a.Weights, K: 7, L: 40, DisableOptimization: true},
		{Vectors: a.Vectors, Weights: map[string]float32{"image": 0.5}, K: 7, L: 40},
		{Vectors: map[string][]float32{"image": {1, 2}}, Weights: a.Weights, K: 7, L: 40},
		{Vectors: map[string][]float32{"image": {1, 2.5}, "text": {3}}, Weights: a.Weights, K: 7, L: 40},
		// The same values modulo 2^32: the key holds the full width.
		{Vectors: a.Vectors, Weights: a.Weights, K: 7 + 1<<32, L: 40},
		{Vectors: a.Vectors, Weights: a.Weights, K: 7, L: 40 + 1<<32},
		{Vectors: a.Vectors, Weights: a.Weights, K: 7, L: 40, Patience: 1 << 32},
	}
	base := cacheKey(a)
	seen := map[string]int{base: -1}
	for i, v := range variants {
		k := cacheKey(v)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d", i, prev)
		}
		seen[k] = i
	}
	// TimeoutMS and NoCache must NOT change the key: they alter delivery,
	// not results, and a different timeout should still hit the cache.
	c := *a
	c.TimeoutMS = 500
	c.NoCache = true
	if cacheKey(&c) != base {
		t.Error("timeout_ms/no_cache changed the cache key")
	}
}

func TestCacheHitMissAndEpochInvalidation(t *testing.T) {
	c := newResultCache(64)
	resp := &must.Response{}
	key := cacheKey(req(1))

	if _, ok := c.Get(key, 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, 1, resp)
	if got, ok := c.Get(key, 1); !ok || got != resp {
		t.Fatal("miss after put at same epoch")
	}
	// Epoch moved (insert/delete/rebuild happened): stale entry must
	// read as a miss and be evicted.
	if _, ok := c.Get(key, 2); ok {
		t.Fatal("served a stale-epoch entry")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not evicted, len=%d", c.Len())
	}
	hits, misses := c.Counters()
	if hits != 1 || misses != 2 {
		t.Fatalf("counters hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity 16 across 16 shards = 1 per shard: a second distinct key
	// landing in the same shard must evict the older one.
	c := newResultCache(16)
	resp := &must.Response{}
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = cacheKey(req(float32(i)))
		c.Put(keys[i], 1, resp)
	}
	if got := c.Len(); got > 16 {
		t.Fatalf("cache grew past capacity: %d entries", got)
	}
	// The newest keys of each shard survive; at least one old key is gone.
	evicted := false
	for _, k := range keys[:100] {
		if _, ok := c.Get(k, 1); !ok {
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatal("no eviction despite 200 inserts into capacity 16")
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newResultCache(capacity)
		key := cacheKey(req(1))
		c.Put(key, 1, &must.Response{})
		if _, ok := c.Get(key, 1); ok {
			t.Fatalf("capacity %d: disabled cache served a hit", capacity)
		}
		if c.Len() != 0 {
			t.Fatalf("capacity %d: disabled cache holds entries", capacity)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(128)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := cacheKey(req(float32(i % 50)))
				if _, ok := c.Get(key, uint64(i%3)); !ok {
					c.Put(key, uint64(i%3), &must.Response{})
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Len() > 128 {
		t.Fatalf("cache exceeded capacity under concurrency: %d", c.Len())
	}
}

func TestCacheKeyDistinctAcrossDims(t *testing.T) {
	// Guard against length-prefix confusion: ["ab"],["c"] vs ["a"],["bc"].
	a := &SearchRequest{Vectors: map[string][]float32{"ab": {1}, "c": {2}}}
	b := &SearchRequest{Vectors: map[string][]float32{"a": {1}, "bc": {2}}}
	if cacheKey(a) == cacheKey(b) {
		t.Fatal("different modality splits share a key")
	}
	for i := 0; i < 4; i++ {
		x := &SearchRequest{Vectors: map[string][]float32{"m": make([]float32, i)}}
		y := &SearchRequest{Vectors: map[string][]float32{"m": make([]float32, i+1)}}
		if cacheKey(x) == cacheKey(y) {
			t.Fatalf("dims %d and %d share a key", i, i+1)
		}
	}
}
