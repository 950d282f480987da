// Sharded-engine benchmarks: the scale path. The n=16384 tier always
// runs; the n=262144 tier only runs with MUST_SCALE=1 (the nightly scale
// workflow, which uploads its numbers), so PR benches stay fast while the
// 256k path keeps running.
package must_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"must"
)

var shardedBenchSchema = must.Schema{{Name: "image", Dim: 24}, {Name: "text", Dim: 12}}

type shardedBench struct {
	mu      sync.Mutex
	corpus  map[int][]must.Object
	queries []must.NamedVectors
	engines map[string]*must.ShardedEngine
	truth   map[int][]map[int64]bool // n -> per-query exact top-10 ID set
}

var sb = shardedBench{
	corpus:  map[int][]must.Object{},
	engines: map[string]*must.ShardedEngine{},
	truth:   map[int][]map[int64]bool{},
}

const shardedBenchQueryCount = 64

func (s *shardedBench) getQueries() []must.NamedVectors {
	if s.queries == nil {
		rng := rand.New(rand.NewSource(99))
		s.queries = make([]must.NamedVectors, shardedBenchQueryCount)
		for i := range s.queries {
			img := make([]float32, 24)
			txt := make([]float32, 12)
			for j := range img {
				img[j] = float32(rng.NormFloat64())
			}
			for j := range txt {
				txt[j] = float32(rng.NormFloat64())
			}
			s.queries[i] = must.NamedVectors{"image": img, "text": txt}
		}
	}
	return s.queries
}

func (s *shardedBench) getCorpus(n int) []must.Object {
	if objs, ok := s.corpus[n]; ok {
		return objs
	}
	rng := rand.New(rand.NewSource(int64(n)))
	objs := make([]must.Object, n)
	for i := range objs {
		img := make([]float32, 24)
		txt := make([]float32, 12)
		for j := range img {
			img[j] = float32(rng.NormFloat64())
		}
		for j := range txt {
			txt[j] = float32(rng.NormFloat64())
		}
		objs[i] = must.Object{img, txt}
	}
	s.corpus[n] = objs
	return objs
}

func shardedBenchEngine(b *testing.B, n, shards int, build bool) *must.ShardedEngine {
	b.Helper()
	eng, err := must.NewShardedEngine(shardedBenchSchema, shards, must.EngineOptions{
		Build: must.BuildOptions{Gamma: 24, Seed: 7},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range sb.getCorpus(n) {
		if _, err := eng.InsertObject(o); err != nil {
			b.Fatal(err)
		}
	}
	if build {
		if err := eng.Build(); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// getBuiltEngine caches one built engine per (n, S) for the whole bench
// process, so -count reruns re-time search without rebuilding.
func (s *shardedBench) getBuiltEngine(b *testing.B, n, shards int) *must.ShardedEngine {
	b.Helper()
	key := fmt.Sprintf("%d/%d", n, shards)
	if eng, ok := s.engines[key]; ok {
		return eng
	}
	eng := shardedBenchEngine(b, n, shards, true)
	s.engines[key] = eng
	return eng
}

// getTruth caches the exact top-10 ID sets of the first 16 bench queries
// (exhaustive scan is partition-independent, so any engine over the same
// corpus produces the same sets).
func (s *shardedBench) getTruth(b *testing.B, eng *must.ShardedEngine, n int) []map[int64]bool {
	b.Helper()
	if tr, ok := s.truth[n]; ok {
		return tr
	}
	queries := s.getQueries()[:16]
	tr := make([]map[int64]bool, len(queries))
	for i, q := range queries {
		resp, err := eng.ExactSearch(context.Background(), must.Query{Vectors: q, K: 10})
		if err != nil {
			b.Fatal(err)
		}
		tr[i] = make(map[int64]bool, len(resp.Matches))
		for _, m := range resp.Matches {
			tr[i][m.ID] = true
		}
	}
	s.truth[n] = tr
	return tr
}

// shardedTiers returns the corpus sizes to bench: the PR tier always,
// plus the 256k scale tier when MUST_SCALE=1.
func shardedTiers() []int {
	tiers := []int{16384}
	if os.Getenv("MUST_SCALE") != "" {
		tiers = append(tiers, 262144)
	}
	return tiers
}

// BenchmarkShardedBuild times full index construction at S=1 vs S=8 over
// the identical corpus. Shards build in parallel on a bounded pool, so on
// a multi-core runner S=8 is expected to be ≥2× faster than S=1 at 256k;
// on a single core the two are equivalent (the gate then guards the
// bookkeeping overhead of sharding instead).
func BenchmarkShardedBuild(b *testing.B) {
	for _, n := range shardedTiers() {
		for _, S := range []int{1, 8} {
			b.Run(fmt.Sprintf("n=%d/S=%d", n, S), func(b *testing.B) {
				sb.mu.Lock()
				defer sb.mu.Unlock()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					eng := shardedBenchEngine(b, n, S, false)
					b.StartTimer()
					if err := eng.Build(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardedSearch times single-query fan-out/merge search at
// matched recall: the single engine runs the default beam l=160 while
// S=8 runs l=40 per shard (8 shards × 40 candidates ≈ more corpus
// coverage per query, so recall stays at least as high — reported as
// recall@10 next to ns/op). The gate holds the sharded p50 within the
// tolerance band of this baseline.
func BenchmarkShardedSearch(b *testing.B) {
	for _, n := range shardedTiers() {
		for _, cfg := range []struct{ S, L int }{{1, 160}, {8, 40}} {
			b.Run(fmt.Sprintf("n=%d/S=%d/l=%d", n, cfg.S, cfg.L), func(b *testing.B) {
				sb.mu.Lock()
				defer sb.mu.Unlock()
				eng := sb.getBuiltEngine(b, n, cfg.S)
				queries := sb.getQueries()
				truth := sb.getTruth(b, eng, n)
				hits, total := 0, 0
				for i, tr := range truth {
					resp, err := eng.Search(context.Background(), must.Query{Vectors: queries[i], K: 10, L: cfg.L})
					if err != nil {
						b.Fatal(err)
					}
					for _, m := range resp.Matches {
						if tr[m.ID] {
							hits++
						}
					}
					total += len(tr)
				}
				b.ReportAllocs()
				b.ResetTimer() // also clears ReportMetric state — report recall after the loop
				for i := 0; i < b.N; i++ {
					q := must.Query{Vectors: queries[i%len(queries)], K: 10, L: cfg.L}
					if _, err := eng.Search(context.Background(), q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(hits)/float64(total), "recall@10")
			})
		}
	}
}
