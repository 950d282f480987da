package server

import (
	"fmt"
	"testing"
	"time"

	"must"
)

// testKey is a distinct search body per seed, as a cache key.
func testKey(seed int) []byte {
	return fmt.Appendf(nil, `{"vectors":{"image":[%d,1,2],"text":[3,4]},"k":5}`, seed)
}

func TestCacheHitMissAndEpochInvalidation(t *testing.T) {
	c := newResultCache(64, 1<<10)
	resp := &must.Response{}
	key := testKey(1)

	if _, ok := c.Get(key, 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, 1, resp)
	// The stored key is a copy: the handler's pooled body buffer is
	// reused for the next request.
	copy(key, testKey(2))
	if got, ok := c.Get(testKey(1), 1); !ok || got != resp {
		t.Fatal("miss after put at same epoch")
	}
	key = testKey(1)
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
	c := newResultCache(16, 1<<10)
	resp := &must.Response{}
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = testKey(i)
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
		c := newResultCache(capacity, 1<<10)
		key := testKey(1)
		c.Put(key, 1, &must.Response{})
		if _, ok := c.Get(key, 1); ok {
			t.Fatalf("capacity %d: disabled cache served a hit", capacity)
		}
		if c.Len() != 0 {
			t.Fatalf("capacity %d: disabled cache holds entries", capacity)
		}
	}
}

// TestCacheConcurrent: each goroutine reuses one key buffer the way
// the handler reuses its pooled body, and every hit must be the
// response stored under that key's bytes.
func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(128, 1<<10)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			var key []byte
			for i := 0; i < 500; i++ {
				q := i % 50
				key = append(key[:0], testKey(q)...)
				resp, ok := c.Get(key, uint64(i%3))
				if !ok {
					c.Put(key, uint64(i%3), &must.Response{Latency: time.Duration(q)})
				} else if resp.Latency != time.Duration(q) {
					t.Errorf("key %d hit the entry of key %d", q, resp.Latency)
					return
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

// TestCacheKeyCanonical: the cache key is the body's bytes. The same
// bytes in another buffer find the stored entry, and a body that
// differs in any result-affecting parameter (full-width k, l and
// patience included) is an entry of its own.
func TestCacheKeyCanonical(t *testing.T) {
	const vecs = `"vectors":{"image":[1,2],"text":[3]},"weights":{"image":0.5,"text":0.25}`
	base := `{` + vecs + `,"k":7,"l":40}`
	bodies := []string{
		base,
		`{` + vecs + `,"k":8,"l":40}`,
		`{` + vecs + `,"k":7,"l":41}`,
		`{` + vecs + `,"k":7,"l":40,"patience":3}`,
		`{` + vecs + `,"k":7,"l":40,"disable_optimization":true}`,
		`{"vectors":{"image":[1,2],"text":[3]},"weights":{"image":0.5},"k":7,"l":40}`,
		`{"vectors":{"image":[1,2]},"weights":{"image":0.5,"text":0.25},"k":7,"l":40}`,
		`{"vectors":{"image":[1,2.5],"text":[3]},"weights":{"image":0.5,"text":0.25},"k":7,"l":40}`,
		fmt.Sprintf(`{%s,"k":%d,"l":40}`, vecs, 7+1<<32),
		fmt.Sprintf(`{%s,"k":7,"l":%d}`, vecs, 40+1<<32),
		fmt.Sprintf(`{%s,"k":7,"l":40,"patience":%d}`, vecs, 1<<32),
	}
	c := newResultCache(1024, 1<<10)
	for i, b := range bodies {
		if _, ok := c.Get([]byte(b), 1); ok {
			t.Fatalf("body %d hit before any body like it was stored", i)
		}
		c.Put([]byte(b), 1, &must.Response{Latency: time.Duration(i)})
	}
	if got := c.Len(); got != len(bodies) {
		t.Fatalf("%d distinct bodies made %d entries", len(bodies), got)
	}
	for i, b := range bodies {
		key := append(make([]byte, 0, len(b)), b...)
		if resp, ok := c.Get(key, 1); !ok || resp.Latency != time.Duration(i) {
			t.Errorf("body %d: hit %v, entry %v", i, ok, resp)
		}
	}
}

// TestCacheKeyDistinctAcrossDims: bodies that split the same characters
// differently across modalities, or differ only in a vector's length,
// are distinct keys, as is a key that is a prefix of another.
func TestCacheKeyDistinctAcrossDims(t *testing.T) {
	bodies := []string{
		`{"vectors":{"ab":[1],"c":[2]}}`,
		`{"vectors":{"a":[1],"bc":[2]}}`,
		`{"vectors":{"m":[]}}`,
		`{"vectors":{"m":[0]}}`,
		`{"vectors":{"m":[0,0]}}`,
		`{"vectors":{"m":[0,0,0]}}`,
		`{"vectors":{"m":[0,0,0]}}  `,
	}
	c := newResultCache(1024, 1<<10)
	for i, b := range bodies {
		c.Put([]byte(b), 1, &must.Response{Latency: time.Duration(i)})
	}
	for i, b := range bodies {
		if resp, ok := c.Get([]byte(b), 1); !ok || resp.Latency != time.Duration(i) {
			t.Errorf("body %d %s: hit %v, entry %v", i, b, ok, resp)
		}
	}
}
