package must

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

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

// buildCorpus populates a 2-modality collection with planted query/answer
// pairs followed by random background objects.
func buildCorpus(t *testing.T, n, nq int, seed int64) (*Collection, []Object, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewCollection(24, 12)
	var queries []Object
	var truths []int
	for i := 0; i < nq; i++ {
		content := randVec(rng, 24)
		attr := randVec(rng, 12)
		id, err := c.Add(Object{perturb(rng, content, 0.05), perturb(rng, attr, 0.05)})
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, Object{perturb(rng, content, 0.05), perturb(rng, attr, 0.05)})
		truths = append(truths, id)
	}
	for c.Len() < n {
		if _, err := c.Add(Object{randVec(rng, 24), randVec(rng, 12)}); err != nil {
			t.Fatal(err)
		}
	}
	return c, queries, truths
}

func TestCollectionAddValidation(t *testing.T) {
	// NewCollection does not validate dims; the first Add must reject a
	// degenerate layout with an error, not a store-constructor panic.
	bad := NewCollection(8, 0)
	if _, err := bad.Add(Object{make([]float32, 8), nil}); err == nil {
		t.Error("zero-dim modality did not error")
	}
	c := NewCollection(4, 2)
	if _, err := c.Add(Object{{1, 0, 0, 0}}); err == nil {
		t.Error("wrong modality count did not error")
	}
	if _, err := c.Add(Object{{1, 0, 0}, {1, 0}}); err == nil {
		t.Error("wrong dim did not error")
	}
	id, err := c.Add(Object{{3, 4, 0, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || c.Len() != 1 {
		t.Fatalf("id=%d len=%d", id, c.Len())
	}
	// Stored vectors are normalized copies.
	o, err := c.Object(0)
	if err != nil {
		t.Fatal(err)
	}
	if o[0][0] != 0.6 || o[0][1] != 0.8 {
		t.Errorf("stored vector not normalized: %v", o[0])
	}
	if _, err := c.Object(5); err == nil {
		t.Error("out-of-range Object did not error")
	}
	if c.Modalities() != 2 || c.Dims()[0] != 4 {
		t.Error("layout accessors wrong")
	}
}

func TestEndToEndSearch(t *testing.T) {
	c, queries, truths := buildCorpus(t, 800, 30, 1)
	w := c.UniformWeights()
	ix, err := Build(c, w, BuildOptions{Gamma: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, q := range queries {
		ms, err := ix.Search(q, SearchOptions{K: 5, L: 200})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.ID == truths[i] {
				hits++
				break
			}
		}
	}
	if hits < len(queries)*9/10 {
		t.Errorf("recall@5 = %d/%d on planted corpus", hits, len(queries))
	}
}

func TestLearnWeightsEndToEnd(t *testing.T) {
	c, queries, truths := buildCorpus(t, 400, 40, 3)
	w, err := LearnWeights(c, queries, truths, WeightConfig{Epochs: 60, Negatives: 5, LearningRate: 0.02, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 {
		t.Fatalf("got %d weights", len(w))
	}
	for i, x := range w {
		if x != x || x == 0 { // NaN or dead weight
			t.Errorf("weight %d = %v", i, x)
		}
	}
	ix, err := Build(c, w, BuildOptions{Gamma: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ix.Search(queries[0], SearchOptions{K: 1, L: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d matches", len(ms))
	}
}

func TestLearnWeightsValidation(t *testing.T) {
	c, queries, truths := buildCorpus(t, 100, 10, 6)
	if _, err := LearnWeights(c, queries, truths[:5], WeightConfig{}); err == nil {
		t.Error("length mismatch did not error")
	}
	bad := append([]int(nil), truths...)
	bad[0] = -1
	if _, err := LearnWeights(c, queries, bad, WeightConfig{Epochs: 1}); err == nil {
		t.Error("bad positive did not error")
	}
	badQ := append([]Object(nil), queries...)
	badQ[0] = Object{{1}}
	if _, err := LearnWeights(c, badQ, truths, WeightConfig{Epochs: 1}); err == nil {
		t.Error("bad query did not error")
	}
}

func TestBuildValidation(t *testing.T) {
	c := NewCollection(4, 2)
	if _, err := Build(c, []float32{1, 1}, BuildOptions{}); err == nil {
		t.Error("empty collection did not error")
	}
	c, _, _ = buildCorpus(t, 50, 5, 7)
	if _, err := Build(c, []float32{1}, BuildOptions{}); err == nil {
		t.Error("wrong weight count did not error")
	}
	if _, err := Build(c, c.UniformWeights(), BuildOptions{Algorithm: GraphAlgorithm(99)}); err == nil {
		t.Error("unknown algorithm did not error")
	}
}

func TestAllAlgorithmsBuildAndSearch(t *testing.T) {
	c, queries, _ := buildCorpus(t, 300, 10, 8)
	w := c.UniformWeights()
	for _, algo := range []GraphAlgorithm{AlgoOurs, AlgoKGraph, AlgoNSG, AlgoNSSG, AlgoHNSW, AlgoVamana, AlgoHCNNG} {
		ix, err := Build(c, w, BuildOptions{Gamma: 12, Algorithm: algo, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		ms, err := ix.Search(queries[0], SearchOptions{K: 5, L: 60})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(ms) != 5 {
			t.Fatalf("%v: got %d matches", algo, len(ms))
		}
		st := ix.Stats()
		if st.Objects != 300 || st.Edges == 0 || st.Algorithm == "" {
			t.Errorf("%v: stats %+v", algo, st)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[GraphAlgorithm]string{
		AlgoOurs: "Ours", AlgoKGraph: "KGraph", AlgoNSG: "NSG", AlgoNSSG: "NSSG",
		AlgoHNSW: "HNSW", AlgoVamana: "Vamana", AlgoHCNNG: "HCNNG",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
	if GraphAlgorithm(42).String() != "GraphAlgorithm(42)" {
		t.Error("unknown algorithm String")
	}
}

func TestUserDefinedWeightOverride(t *testing.T) {
	c, queries, _ := buildCorpus(t, 300, 10, 10)
	ix, err := Build(c, c.UniformWeights(), BuildOptions{Gamma: 12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Weight only modality 1: results must rank by attribute similarity.
	ms, err := ix.Search(queries[0], SearchOptions{K: 5, L: 100, Weights: []float32{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("got %d matches", len(ms))
	}
	if _, err := ix.Search(queries[0], SearchOptions{K: 5, Weights: []float32{1}}); err == nil {
		t.Error("wrong override weight count did not error")
	}
}

func TestMissingModalityQuery(t *testing.T) {
	c, queries, truths := buildCorpus(t, 300, 10, 12)
	ix, err := Build(c, c.UniformWeights(), BuildOptions{Gamma: 12, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Drop the auxiliary modality (§IX single-modality input): nil vector
	// plus a zero weight for it.
	q := Object{queries[0][0], nil}
	ms, err := ix.Search(q, SearchOptions{K: 10, L: 150, Weights: []float32{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.ID == truths[0] {
			found = true
			break
		}
	}
	if !found {
		t.Error("target-only search missed the planted near-duplicate")
	}
}

func TestExactSearchMatchesIndexAtHighL(t *testing.T) {
	c, queries, _ := buildCorpus(t, 400, 10, 14)
	w := c.UniformWeights()
	ix, err := Build(c, w, BuildOptions{Gamma: 16, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, q := range queries {
		exact, err := c.ExactSearch(q, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := ix.Search(q, SearchOptions{K: 1, L: 400})
		if err != nil {
			t.Fatal(err)
		}
		if exact[0].ID == approx[0].ID {
			agree++
		}
	}
	if agree < 9 {
		t.Errorf("index agreed with exact search on %d/10 queries", agree)
	}
}

func TestSaveLoadIndex(t *testing.T) {
	c, queries, _ := buildCorpus(t, 200, 5, 16)
	ix, err := Build(c, c.UniformWeights(), BuildOptions{Gamma: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.bin")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(path, c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ix.Search(queries[0], SearchOptions{K: 5, L: 80})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Search(queries[0], SearchOptions{K: 5, L: 80})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("loaded index searches differently")
		}
	}
	if loaded.Weights()[0] != ix.Weights()[0] {
		t.Error("weights not restored")
	}
}

func TestSearchDefaults(t *testing.T) {
	c, queries, _ := buildCorpus(t, 200, 5, 18)
	ix, err := Build(c, c.UniformWeights(), BuildOptions{Gamma: 10, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ix.Search(queries[0], SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 10 {
		t.Fatalf("default K: got %d matches", len(ms))
	}
}

func TestAddRejectsNonFinite(t *testing.T) {
	c := NewCollection(2, 2)
	nan := float32(math.NaN())
	if _, err := c.Add(Object{{nan, 1}, {1, 0}}); err == nil {
		t.Error("NaN coordinate did not error")
	}
	inf := float32(math.Inf(1))
	if _, err := c.Add(Object{{1, 0}, {inf, 0}}); err == nil {
		t.Error("Inf coordinate did not error")
	}
	if c.Len() != 0 {
		t.Error("rejected objects were stored")
	}
}

// A query coordinate that is NaN or ±Inf must be rejected, with the
// modality named, on every search entry point — not answered with NaN
// similarities. Every path converts through Collection.query.
func TestSearchRejectsNonFiniteQuery(t *testing.T) {
	ctx := context.Background()
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		poison := func(v []float32) []float32 {
			v = append([]float32(nil), v...)
			v[1] = bad
			return v
		}
		check := func(what string, err error, modality string) {
			t.Helper()
			if err == nil {
				t.Errorf("%v in %s: %s accepted the query", bad, modality, what)
			} else if !strings.Contains(err.Error(), modality) {
				t.Errorf("%v in %s: %s error %q does not name the modality", bad, modality, what, err)
			}
		}

		e, rng := newBuiltEngine(t, 100)
		q := Query{Vectors: NamedVectors{
			"image": poison(engRandVec(rng, engImgDim)),
			"text":  engRandVec(rng, engTxtDim),
		}, K: 5}
		_, err := e.Search(ctx, q)
		check("Engine.Search", err, `"image"`)
		_, err = e.ExactSearch(ctx, q)
		check("Engine.ExactSearch", err, `"image"`)

		s := newSharded(t, shardedObjects(90, 5), 3, true)
		sq := Query{Vectors: NamedVectors{"a": randVec(rng, 24), "b": poison(randVec(rng, 12))}, K: 5}
		_, err = s.Search(ctx, sq)
		check("ShardedEngine.Search", err, `"b"`)
		_, err = s.ExactSearch(ctx, sq)
		check("ShardedEngine.ExactSearch", err, `"b"`)

		c, queries, _ := buildCorpus(t, 120, 1, 7)
		ix, err := Build(c, c.UniformWeights(), BuildOptions{Gamma: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = ix.Search(Object{queries[0][0], poison(queries[0][1])}, SearchOptions{K: 5})
		check("Index.Search", err, "modality 1")
	}
}
