package must_test

import (
	"context"
	"fmt"
	"math/rand"

	"must"
)

// Example_quickstart is the minimal end-to-end MUST pipeline on the
// Engine API: declare a schema of named modalities, insert multimodal
// objects, learn modality weights from a handful of (query, true answer)
// pairs, build the fused index, and search with a typed Query.
//
// The "embeddings" are synthetic: each object is a product with an image
// vector ("image", the target modality) and a description vector
// ("text"). The query perturbs one planted object, which must rank first;
// "*" marks it.
func Example_quickstart() {
	const (
		imageDim = 32
		textDim  = 16
		corpus   = 3000
		training = 100
	)
	rng := rand.New(rand.NewSource(42))
	engine, err := must.NewEngine(must.Schema{
		{Name: "image", Dim: imageDim}, // modality 0 = target
		{Name: "text", Dim: textDim},
	}, must.EngineOptions{Build: must.BuildOptions{Gamma: 20, Seed: 2}})
	check(err)

	// Plant training pairs: object i is the true answer for query i.
	var trainQueries []must.NamedVectors
	var trainPositives []int64
	for i := 0; i < training; i++ {
		img := randVec(rng, imageDim)
		txt := randVec(rng, textDim)
		id, err := engine.Insert(must.NamedVectors{
			"image": perturb(rng, img, 0.1),
			"text":  perturb(rng, txt, 0.1),
		})
		check(err)
		trainQueries = append(trainQueries, must.NamedVectors{
			"image": perturb(rng, img, 0.1),
			"text":  perturb(rng, txt, 0.1),
		})
		trainPositives = append(trainPositives, id)
	}
	// Background corpus, plus the planted answer for the demo query.
	img := randVec(rng, imageDim)
	txt := randVec(rng, textDim)
	wantID, err := engine.Insert(must.NamedVectors{
		"image": perturb(rng, img, 0.1),
		"text":  perturb(rng, txt, 0.1),
	})
	check(err)
	for engine.Len() < corpus {
		_, err := engine.Insert(must.NamedVectors{
			"image": randVec(rng, imageDim),
			"text":  randVec(rng, textDim),
		})
		check(err)
	}

	// 1. Learn the modality weights (§VI of the paper).
	w, err := engine.LearnWeights(trainQueries, trainPositives, must.WeightConfig{
		Epochs: 150, LearningRate: 0.02, Negatives: 5, Seed: 1,
	})
	check(err)
	fmt.Printf("learned weights: ω0²=%.3f ω1²=%.3f\n", w[0]*w[0], w[1]*w[1])

	// 2. Build the fused proximity-graph index (§VII).
	check(engine.Build())
	st, err := engine.Stats()
	check(err)
	fmt.Printf("index: %d objects, %d edges, %.1f avg degree\n", st.Objects, st.Edges, st.AvgDegree)

	// 3. Search with a typed query: named modality vectors, context for
	// cancellation, per-modality score breakdown on every match.
	resp, err := engine.Search(context.Background(), must.Query{
		Vectors: must.NamedVectors{
			"image": perturb(rng, img, 0.1),
			"text":  perturb(rng, txt, 0.1),
		},
		K: 5,
	})
	check(err)
	fmt.Println("top-5 matches:")
	for rank, m := range resp.Matches {
		mark := " "
		if m.ID == wantID {
			mark = "*"
		}
		fmt.Printf("  %d.%s object %d  joint=%.4f  (image %.4f + text %.4f)\n",
			rank+1, mark, m.ID, m.Similarity, m.ByModality["image"], m.ByModality["text"])
	}
	// Output:
	// learned weights: ω0²=1.369 ω1²=0.631
	// index: 3000 objects, 54287 edges, 18.1 avg degree
	// top-5 matches:
	//   1.* object 100  joint=1.9869  (image 1.3589 + text 0.6280)
	//   2.  object 773  joint=0.9075  (image 0.6422 + text 0.2653)
	//   3.  object 407  joint=0.9067  (image 0.5810 + text 0.3257)
	//   4.  object 2190  joint=0.8847  (image 0.6621 + text 0.2226)
	//   5.  object 2087  joint=0.8130  (image 0.5221 + text 0.2909)
}

// Example_dynamic walks the §IX index-maintenance features on a live
// Engine: incremental insertion, tombstone deletion (excluded from
// results, kept for routing), filtered search (the §III hybrid-query
// setting), iterative refinement (a returned result becomes the next
// query's target reference), early termination, and a Rebuild that
// compacts tombstones while preserving object IDs.
func Example_dynamic() {
	const (
		imageDim = 24
		textDim  = 12
	)
	rng := rand.New(rand.NewSource(7))
	engine, err := must.NewEngine(must.Schema{
		{Name: "image", Dim: imageDim},
		{Name: "text", Dim: textDim},
	}, must.EngineOptions{Build: must.BuildOptions{Gamma: 16, Seed: 1}})
	check(err)
	for i := 0; i < 2000; i++ {
		_, err := engine.Insert(must.NamedVectors{
			"image": randVec(rng, imageDim),
			"text":  randVec(rng, textDim),
		})
		check(err)
	}
	check(engine.Build())
	fmt.Printf("built engine over %d objects\n", engine.Len())
	ctx := context.Background()

	// 1. Incremental insert: a brand-new product appears on the live index.
	img := randVec(rng, imageDim)
	txt := randVec(rng, textDim)
	newID, err := engine.Insert(must.NamedVectors{"image": img, "text": txt})
	check(err)
	q := must.Query{
		Vectors: must.NamedVectors{
			"image": perturb(rng, img, 0.05),
			"text":  perturb(rng, txt, 0.05),
		},
		K: 3, L: 150,
	}
	resp, err := engine.Search(ctx, q)
	check(err)
	fmt.Printf("inserted object %d; query for it returns top-1 = %d (sim %.3f)\n",
		newID, resp.Matches[0].ID, resp.Matches[0].Similarity)

	// 2. Tombstone deletion: the product is discontinued.
	check(engine.Delete(newID))
	resp, err = engine.Search(ctx, q)
	check(err)
	fmt.Printf("after Delete(%d): top-1 = %d\n", newID, resp.Matches[0].ID)

	// 3. Filtered search: only even IDs qualify (an attribute predicate).
	filtered := q
	filtered.K, filtered.L = 5, 200
	filtered.Filter = func(id int64) bool { return id%2 == 0 }
	resp, err = engine.Search(ctx, filtered)
	check(err)
	fmt.Print("hybrid query (id%2==0):")
	for _, m := range resp.Matches {
		fmt.Printf(" %d", m.ID)
	}
	fmt.Println()

	// 4. Iterative refinement: take the current best, keep its look,
	// change the wish (§IX single-modality interaction loop).
	picked := resp.Matches[0].ID
	liked, err := engine.Object(picked)
	check(err)
	resp, err = engine.Search(ctx, must.Query{
		Vectors: must.NamedVectors{
			"image": liked["image"],        // keep the returned look
			"text":  randVec(rng, textDim), // new wish
		},
		K: 3, L: 150,
	})
	check(err)
	fmt.Printf("refined around object %d with a new text wish: top-3 =", picked)
	for _, m := range resp.Matches {
		fmt.Printf(" %d", m.ID)
	}
	fmt.Println()

	// 5. Early termination: trade a little recall for latency.
	fast := q
	fast.L, fast.Patience = 400, 3
	resp, err = engine.Search(ctx, fast)
	check(err)
	fmt.Printf("early-terminated search returns %d results (top sim %.3f)\n",
		len(resp.Matches), resp.Matches[0].Similarity)

	// 6. Rebuild: compact the tombstones away; IDs are preserved.
	check(engine.Rebuild())
	_, err = engine.Object(picked)
	fmt.Printf("after Rebuild: %d live objects, %d tombstones, object %d still addressable: %v\n",
		engine.Len(), engine.Deleted(), picked, err == nil)
	// Output:
	// built engine over 2000 objects
	// inserted object 2000; query for it returns top-1 = 2000 (sim 0.999)
	// after Delete(2000): top-1 = 1030
	// hybrid query (id%2==0): 1030 1574 146 662 1536
	// refined around object 1030 with a new text wish: top-3 = 1451 1030 3
	// early-terminated search returns 3 results (top sim 0.526)
	// after Rebuild: 2000 live objects, 0 tombstones, object 1030 still addressable: true
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func perturb(rng *rand.Rand, v []float32, eps float64) []float32 {
	out := make([]float32, len(v))
	for i := range v {
		out[i] = v[i] + float32(rng.NormFloat64()*eps)
	}
	return out
}
