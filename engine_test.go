package must

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const (
	engImgDim = 12
	engTxtDim = 8
)

func engSchema() Schema {
	return Schema{{Name: "image", Dim: engImgDim}, {Name: "text", Dim: engTxtDim}}
}

func engRandVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// newBuiltEngine creates an engine over n random objects and builds it.
func newBuiltEngine(t *testing.T, n int) (*Engine, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	e, err := NewEngine(engSchema(), EngineOptions{Build: BuildOptions{Gamma: 12, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := e.Insert(NamedVectors{
			"image": engRandVec(rng, engImgDim),
			"text":  engRandVec(rng, engTxtDim),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	return e, rng
}

func TestEngineSchemaValidation(t *testing.T) {
	cases := []Schema{
		{},
		{{Name: "", Dim: 4}},
		{{Name: "a", Dim: 4}, {Name: "a", Dim: 8}},
		{{Name: "a", Dim: 0}},
	}
	for i, s := range cases {
		if _, err := NewEngine(s, EngineOptions{}); err == nil {
			t.Errorf("case %d: schema %v accepted", i, s)
		}
	}
}

func TestEngineSearchNamedQuery(t *testing.T) {
	e, rng := newBuiltEngine(t, 400)
	img := engRandVec(rng, engImgDim)
	txt := engRandVec(rng, engTxtDim)
	id, err := e.Insert(NamedVectors{"image": img, "text": txt})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": img, "text": txt},
		K:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 3 {
		t.Fatalf("got %d matches, want 3", len(resp.Matches))
	}
	if resp.Matches[0].ID != id {
		t.Fatalf("top match %d, want the inserted object %d", resp.Matches[0].ID, id)
	}
	if resp.Latency <= 0 {
		t.Errorf("latency not recorded: %v", resp.Latency)
	}
	if resp.Stats.Hops == 0 || resp.Stats.FullEvals == 0 {
		t.Errorf("stats not populated: %+v", resp.Stats)
	}
}

func TestEngineBreakdownSumsToSimilarity(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)
	resp, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{
			"image": engRandVec(rng, engImgDim),
			"text":  engRandVec(rng, engTxtDim),
		},
		K: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Matches {
		if len(m.ByModality) != 2 {
			t.Fatalf("match %d: breakdown has %d modalities, want 2", m.ID, len(m.ByModality))
		}
		sum := m.ByModality["image"] + m.ByModality["text"]
		if diff := math.Abs(float64(sum - m.Similarity)); diff > 1e-4 {
			t.Errorf("match %d: breakdown sums to %.6f, similarity %.6f (diff %g)",
				m.ID, sum, m.Similarity, diff)
		}
	}
}

func TestEngineMissingModalityZeroesWeight(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)
	resp, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)},
		K:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Matches {
		if m.ByModality["text"] != 0 {
			t.Errorf("missing modality contributed %.6f, want 0", m.ByModality["text"])
		}
		if m.ByModality["image"] == 0 {
			t.Errorf("present modality contributed 0")
		}
	}
	// A query with no usable modality at all must be rejected.
	if _, err := e.Search(context.Background(), Query{Vectors: NamedVectors{}}); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)},
		Weights: map[string]float32{"image": 0},
	}); err == nil {
		t.Error("all-zero-weight query accepted")
	}
}

func TestEngineQueryValidation(t *testing.T) {
	e, rng := newBuiltEngine(t, 100)
	if _, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"audio": engRandVec(rng, 4)},
	}); err == nil {
		t.Error("unknown modality accepted")
	}
	if _, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)},
		Weights: map[string]float32{"audio": 1},
	}); err == nil {
		t.Error("unknown weight-override modality accepted")
	}
	if _, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim+1)},
	}); err == nil {
		t.Error("wrong-dimension vector accepted")
	}
	if _, err := e.Insert(NamedVectors{"image": engRandVec(rng, engImgDim)}); err == nil {
		t.Error("object missing a modality accepted")
	}
	if _, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)},
		Weights: map[string]float32{"image": float32(math.NaN())},
	}); err == nil {
		t.Error("NaN weight override accepted")
	}
}

func TestEngineWeightOverrideByName(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)
	q := NamedVectors{
		"image": engRandVec(rng, engImgDim),
		"text":  engRandVec(rng, engTxtDim),
	}
	resp, err := e.Search(context.Background(), Query{
		Vectors: q,
		K:       5,
		Weights: map[string]float32{"image": 1, "text": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Matches {
		if m.ByModality["text"] != 0 {
			t.Errorf("zero-weighted modality contributed %.6f", m.ByModality["text"])
		}
	}
}

func TestEngineSearchBeforeBuild(t *testing.T) {
	e, err := NewEngine(engSchema(), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(context.Background(), Query{}); err != ErrNotBuilt {
		t.Fatalf("got %v, want ErrNotBuilt", err)
	}
	if err := e.Delete(0); err != ErrNotBuilt {
		t.Fatalf("got %v, want ErrNotBuilt", err)
	}
	if err := e.Rebuild(); err != ErrNotBuilt {
		t.Fatalf("got %v, want ErrNotBuilt", err)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	e, rng := newBuiltEngine(t, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Search(ctx, Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)},
	})
	if err == nil {
		t.Fatal("search with cancelled context succeeded")
	}
	if ctx.Err() == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	// An already-expired deadline behaves the same.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := e.Search(dctx, Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)},
	}); err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v", err)
	}
	// A live context still works.
	if _, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeleteAndRebuildPreservesIDs(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)
	img := engRandVec(rng, engImgDim)
	txt := engRandVec(rng, engTxtDim)
	keep, err := e.Insert(NamedVectors{"image": img, "text": txt})
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone a block of early objects.
	for id := int64(0); id < 50; id++ {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Deleted(); got != 50 {
		t.Fatalf("Deleted() = %d, want 50", got)
	}
	before := e.Len()
	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := e.Deleted(); got != 0 {
		t.Fatalf("after rebuild Deleted() = %d, want 0", got)
	}
	if e.Len() != before {
		t.Fatalf("rebuild changed live count: %d -> %d", before, e.Len())
	}
	// The surviving object keeps its ID and is still findable.
	resp, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": img, "text": txt},
		K:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Matches[0].ID != keep {
		t.Fatalf("after rebuild top match %d, want %d", resp.Matches[0].ID, keep)
	}
	// Deleted IDs are really gone.
	if _, err := e.Object(0); err == nil {
		t.Error("deleted object still addressable after rebuild")
	}
	if _, err := e.Object(keep); err != nil {
		t.Errorf("surviving object not addressable: %v", err)
	}
}

func TestEngineFilterSeesEngineIDs(t *testing.T) {
	e, _ := newBuiltEngine(t, 200)
	// Delete odd IDs, rebuild (compaction shifts internal slots), then
	// filter on even engine IDs: every returned ID must be even, which
	// only holds if the filter sees engine IDs, not internal slots.
	for id := int64(1); id < 100; id += 2 {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	resp, err := e.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim), "text": engRandVec(rng, engTxtDim)},
		K:       10,
		L:       200,
		Filter:  func(id int64) bool { return id%4 == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("filtered search returned nothing")
	}
	for _, m := range resp.Matches {
		if m.ID%4 != 0 {
			t.Errorf("filter leaked engine ID %d", m.ID)
		}
	}
}

func TestEngineConcurrentSearchInsertDeleteRebuild(t *testing.T) {
	e, _ := newBuiltEngine(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg       sync.WaitGroup
		searches atomic.Int64
		inserts  atomic.Int64
		deletes  atomic.Int64
		rebuilds atomic.Int64
		failure  atomic.Value
	)
	fail := func(err error) {
		failure.CompareAndSwap(nil, err)
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				_, err := e.Search(context.Background(), Query{
					Vectors: NamedVectors{
						"image": engRandVec(rng, engImgDim),
						"text":  engRandVec(rng, engTxtDim),
					},
					K: 5,
				})
				if err != nil {
					fail(err)
					return
				}
				searches.Add(1)
			}
		}(int64(g + 100))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		for time.Now().Before(deadline) && ctx.Err() == nil {
			id, err := e.Insert(NamedVectors{
				"image": engRandVec(rng, engImgDim),
				"text":  engRandVec(rng, engTxtDim),
			})
			if err != nil {
				fail(err)
				return
			}
			inserts.Add(1)
			if id%3 == 0 {
				if err := e.Delete(id); err != nil {
					fail(err)
					return
				}
				deletes.Add(1)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) && ctx.Err() == nil {
			if err := e.Rebuild(); err != nil {
				fail(err)
				return
			}
			rebuilds.Add(1)
			time.Sleep(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	if err := failure.Load(); err != nil {
		t.Fatal(err)
	}
	t.Logf("concurrent run: %d searches, %d inserts, %d deletes, %d rebuilds",
		searches.Load(), inserts.Load(), deletes.Load(), rebuilds.Load())
	if searches.Load() == 0 || inserts.Load() == 0 || rebuilds.Load() == 0 {
		t.Error("one of the concurrent operations never ran")
	}
	// The engine must still be coherent: every live ID searchable.
	if _, err := e.Stats(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineExactSearch(t *testing.T) {
	e, rng := newBuiltEngine(t, 200)
	img := engRandVec(rng, engImgDim)
	txt := engRandVec(rng, engTxtDim)
	id, err := e.Insert(NamedVectors{"image": img, "text": txt})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Vectors: NamedVectors{"image": img, "text": txt}, K: 3}
	resp, err := e.ExactSearch(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Matches[0].ID != id {
		t.Fatalf("exact top-1 = %d, want %d", resp.Matches[0].ID, id)
	}
	sum := resp.Matches[0].ByModality["image"] + resp.Matches[0].ByModality["text"]
	if diff := math.Abs(float64(sum - resp.Matches[0].Similarity)); diff > 1e-4 {
		t.Errorf("exact breakdown sums to %.6f, similarity %.6f", sum, resp.Matches[0].Similarity)
	}
	// Tombstoned objects never surface in exact results.
	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	resp, err = e.ExactSearch(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Matches {
		if m.ID == id {
			t.Fatal("deleted object surfaced in exact search")
		}
	}
	// Filters apply, and exact search works pre-build too.
	fresh, err := NewEngine(engSchema(), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := fresh.Insert(NamedVectors{
			"image": engRandVec(rng, engImgDim),
			"text":  engRandVec(rng, engTxtDim),
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = fresh.ExactSearch(context.Background(), Query{
		Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)},
		K:       5,
		Filter:  func(id int64) bool { return id%2 == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 5 {
		t.Fatalf("pre-build exact search returned %d matches", len(resp.Matches))
	}
	for _, m := range resp.Matches {
		if m.ID%2 != 1 {
			t.Errorf("filter leaked ID %d", m.ID)
		}
	}
}

func TestEngineSearchBatch(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = Query{
			Vectors: NamedVectors{
				"image": engRandVec(rng, engImgDim),
				"text":  engRandVec(rng, engTxtDim),
			},
			K: 3,
		}
	}
	resps, err := e.SearchBatch(context.Background(), queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(queries) {
		t.Fatalf("got %d responses for %d queries", len(resps), len(queries))
	}
	for i, r := range resps {
		if r == nil || len(r.Matches) != 3 {
			t.Fatalf("response %d malformed: %+v", i, r)
		}
		// Each batched response must agree with a serial search.
		serial, err := e.Search(context.Background(), queries[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range serial.Matches {
			if serial.Matches[j].ID != r.Matches[j].ID {
				t.Fatalf("query %d rank %d: batch %d vs serial %d",
					i, j, r.Matches[j].ID, serial.Matches[j].ID)
			}
		}
	}
}

func TestEngineLearnWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	e, err := NewEngine(engSchema(), EngineOptions{Build: BuildOptions{Gamma: 12, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Signal lives entirely in the image modality; text is noise.
	var queries []NamedVectors
	var positives []int64
	for i := 0; i < 60; i++ {
		img := engRandVec(rng, engImgDim)
		id, err := e.Insert(NamedVectors{"image": img, "text": engRandVec(rng, engTxtDim)})
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float32, engImgDim)
		for j := range q {
			q[j] = img[j] + float32(rng.NormFloat64()*0.05)
		}
		queries = append(queries, NamedVectors{"image": q, "text": engRandVec(rng, engTxtDim)})
		positives = append(positives, id)
	}
	for i := 0; i < 200; i++ {
		if _, err := e.Insert(NamedVectors{
			"image": engRandVec(rng, engImgDim),
			"text":  engRandVec(rng, engTxtDim),
		}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := e.LearnWeights(queries, positives, WeightConfig{Epochs: 120, LearningRate: 0.05, Negatives: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w[0]*w[0] <= w[1]*w[1] {
		t.Errorf("learned ω0²=%.4f not above noise modality ω1²=%.4f", w[0]*w[0], w[1]*w[1])
	}
	got := e.Weights()
	if got[0] != w[0] || got[1] != w[1] {
		t.Errorf("weights not stored on engine: %v vs %v", got, w)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestEnginePersistenceRoundTrip(t *testing.T) {
	e, rng := newBuiltEngine(t, 150)
	img := engRandVec(rng, engImgDim)
	txt := engRandVec(rng, engTxtDim)
	want, err := e.Insert(NamedVectors{"image": img, "text": txt})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(3); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.bin")
	if err := WriteSnapshot(e, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Schema(); len(got) != 2 || got[0].Name != "image" || got[1].Name != "text" {
		t.Fatalf("schema not restored: %v", got)
	}
	if loaded.Deleted() != 1 {
		t.Fatalf("tombstones not restored: %d", loaded.Deleted())
	}
	if loaded.Len() != e.Len() {
		t.Fatalf("size mismatch: %d vs %d", loaded.Len(), e.Len())
	}
	resp, err := loaded.Search(context.Background(), Query{
		Vectors: NamedVectors{"image": img, "text": txt},
		K:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Matches[0].ID != want {
		t.Fatalf("loaded engine top match %d, want %d", resp.Matches[0].ID, want)
	}
	// The loaded engine accepts further inserts and rebuilds.
	if _, err := loaded.Insert(NamedVectors{
		"image": engRandVec(rng, engImgDim),
		"text":  engRandVec(rng, engTxtDim),
	}); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Rebuild(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionV2NamesRoundTrip(t *testing.T) {
	c := &collection{dims: []int{2, 3}, names: []string{"image", "text"}}
	if _, err := c.Add(Object{{1, 0}, {0, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	got, err := readCollection(collectionBytes(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.names) != 2 || got.names[0] != "image" || got.names[1] != "text" {
		t.Fatalf("names not round-tripped: %v", got.names)
	}
	// A collection without names reads back without names.
	c.names = nil
	got, err = readCollection(collectionBytes(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if got.names != nil {
		t.Fatalf("unnamed collection read back names %v", got.names)
	}
}
