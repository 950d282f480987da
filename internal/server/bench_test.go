package server

import (
	"context"
	"sync"
	"testing"

	"must"
)

// benchFixture is built once and shared by every sub-benchmark so graph
// construction does not pollute timings.
var (
	benchOnce    sync.Once
	benchEng     *must.Engine
	benchQueries []must.Query
)

func benchSetup(b *testing.B) (*must.Engine, []must.Query) {
	b.Helper()
	benchOnce.Do(func() {
		benchEng, benchQueries, _ = testEngine(b, 2000)
	})
	return benchEng, benchQueries
}

// BenchmarkServePipeline measures the serving hot path at high offered
// concurrency: direct is one engine call per request, with nothing
// bounding how many run at once; batched goes through the batcher
// exactly as mustd serves searches. ns/op is per served query.
func BenchmarkServePipeline(b *testing.B) {
	eng, queries := benchSetup(b)

	b.Run("direct", func(b *testing.B) {
		b.SetParallelism(64)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q := queries[i%len(queries)]
				i++
				if _, err := eng.Search(context.Background(), q); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})

	b.Run("batched", func(b *testing.B) {
		bat := newBatcher(eng, 64, 0, NewMetrics())
		defer bat.Close()
		b.SetParallelism(64)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q := queries[i%len(queries)]
				i++
				if _, _, _, err := bat.Search(context.Background(), q); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
