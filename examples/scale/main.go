// Scale demonstrates the Tab. VII trend: exact multi-vector search grows
// linearly with corpus size while MUST's fused-graph search stays nearly
// flat, at matched (near-exact) recall. Both sides run through one Engine:
// ExactSearch is the exhaustive baseline (MUST--), Search the graph, and
// GOMAXPROCS goroutines calling Search serve the query workload
// concurrently, as mustd does — the throughput the paper's
// single-threaded numbers leave on the table.
//
//	go run ./examples/scale [-base 4000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"must"
	"must/internal/dataset"
	"must/internal/encoder"
)

func main() {
	base := flag.Int("base", 4000, "base corpus size; the sweep runs 1x/2x/4x")
	flag.Parse()

	ctx := context.Background()
	fmt.Println("n        build      exact/query   MUST/query   speedup   concurrent/query")
	for _, factor := range []int{1, 2, 4} {
		n := *base * factor
		raw, err := dataset.GenerateFeature(dataset.ImageTextN(n, 7))
		if err != nil {
			log.Fatal(err)
		}
		set := dataset.EncoderSet{Unimodal: []encoder.Encoder{
			encoder.NewResNet50(raw.ContentDim, 7),
			encoder.NewOrdinal(raw.AttrDim, 7),
		}}
		enc := dataset.MustEncode(raw, set)

		engine, err := must.NewEngine(must.Schema{
			{Name: "image", Dim: enc.Dims[0]},
			{Name: "text", Dim: enc.Dims[1]},
		}, must.EngineOptions{Build: must.BuildOptions{Gamma: 24, Seed: 2}})
		if err != nil {
			log.Fatal(err)
		}
		for _, o := range enc.Objects {
			if _, err := engine.InsertObject(must.Object(o)); err != nil {
				log.Fatal(err)
			}
		}
		buildStart := time.Now()
		if err := engine.Build(); err != nil {
			log.Fatal(err)
		}
		buildTime := time.Since(buildStart)

		queries := enc.Queries
		if len(queries) > 100 {
			queries = queries[:100]
		}
		typed := make([]must.Query, len(queries))
		for i, q := range queries {
			typed[i] = must.Query{
				Vectors: must.NamedVectors{"image": q.Vectors[0], "text": q.Vectors[1]},
				K:       10, L: 80,
			}
		}
		exactStart := time.Now()
		for _, q := range typed {
			if _, err := engine.ExactSearch(ctx, q); err != nil {
				log.Fatal(err)
			}
		}
		exactPer := time.Since(exactStart) / time.Duration(len(queries))

		graphStart := time.Now()
		for _, q := range typed {
			if _, err := engine.Search(ctx, q); err != nil {
				log.Fatal(err)
			}
		}
		graphPer := time.Since(graphStart) / time.Duration(len(queries))

		concStart := time.Now()
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(typed); i += workers {
					if _, err := engine.Search(ctx, typed[i]); err != nil {
						log.Fatal(err)
					}
				}
			}()
		}
		wg.Wait()
		concPer := time.Since(concStart) / time.Duration(len(queries))

		fmt.Printf("%-8d %-10v %-13v %-12v %-9s %v\n",
			n, buildTime.Round(time.Millisecond),
			exactPer.Round(time.Microsecond), graphPer.Round(time.Microsecond),
			fmt.Sprintf("%.1fx", float64(exactPer)/float64(graphPer)),
			concPer.Round(time.Microsecond))
	}
	fmt.Println("\nExact per-query time grows with n; the fused-graph search barely moves —")
	fmt.Println("the Tab. VII scalability result (98.4% response-time reduction at 16M) —")
	fmt.Println("and searching on every core divides the time per query further.")
}
