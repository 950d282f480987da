package must_test

import (
	"context"
	"testing"
	"time"

	"must"
)

// BenchmarkMaintainedChurn measures insert+delete churn throughput on a
// sharded engine while the background maintenance manager is live, paced
// rebuilds included. Churn cost is workload-shaped rather than a stable
// kernel number, so it informs; the ladder's churn_durable is the gate.
func BenchmarkMaintainedChurn(b *testing.B) {
	for _, maintained := range []bool{false, true} {
		name := "unmaintained"
		if maintained {
			name = "maintained"
		}
		b.Run(name, func(b *testing.B) {
			eng := shardedBenchEngine(b, 8192, 3, true)
			if maintained {
				m := must.StartMaintenance(eng, must.MaintenanceOptions{
					Interval:           5 * time.Millisecond,
					MinRebuildGap:      50 * time.Millisecond,
					OverlayWatermark:   0.10,
					TombstoneWatermark: 0.10,
				})
				defer m.Close()
			}
			queries := sb.getQueries()
			obj := sb.getCorpus(8192)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := eng.InsertObject(obj)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Delete(id); err != nil {
					b.Fatal(err)
				}
				if i%8 == 0 {
					if _, err := eng.Search(context.Background(), must.Query{Vectors: queries[i%len(queries)], K: 10}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
