package must

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
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

// corpusEngine creates an unbuilt engine over shardedSchema ("a": 24,
// "b": 12) holding nq planted query/answer pairs followed by random
// background objects, n in total. Engine IDs equal insertion order until
// the first Rebuild.
func corpusEngine(t *testing.T, n, nq int, seed int64, bo BuildOptions) (*Engine, []Object, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e, err := NewEngine(shardedSchema, EngineOptions{Build: bo})
	if err != nil {
		t.Fatal(err)
	}
	var queries []Object
	var truths []int64
	for i := 0; i < nq; i++ {
		content := randVec(rng, 24)
		attr := randVec(rng, 12)
		id, err := e.InsertObject(Object{perturb(rng, content, 0.05), perturb(rng, attr, 0.05)})
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, Object{perturb(rng, content, 0.05), perturb(rng, attr, 0.05)})
		truths = append(truths, id)
	}
	for e.Len() < n {
		if _, err := e.InsertObject(Object{randVec(rng, 24), randVec(rng, 12)}); err != nil {
			t.Fatal(err)
		}
	}
	return e, queries, truths
}

// buildCorpus is corpusEngine followed by Build.
func buildCorpus(t *testing.T, n, nq int, seed int64, bo BuildOptions) (*Engine, []Object, []int64) {
	t.Helper()
	e, queries, truths := corpusEngine(t, n, nq, seed, bo)
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	return e, queries, truths
}

// corpusQuery names a positional query in shardedSchema order; a nil
// entry leaves that modality missing.
func corpusQuery(o Object, k, l int) Query {
	v := NamedVectors{}
	for i, m := range shardedSchema {
		if o[i] != nil {
			v[m.Name] = o[i]
		}
	}
	return Query{Vectors: v, K: k, L: l}
}

// searchIDs runs q and returns the matched IDs, failing the test on error.
func searchIDs(t *testing.T, s Service, q Query) []int64 {
	t.Helper()
	resp, err := s.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return matchIDs(resp)
}

func TestCollectionAddValidation(t *testing.T) {
	// The first Add must reject a degenerate layout with an error, not a
	// store-constructor panic.
	bad := &collection{dims: []int{8, 0}}
	if _, err := bad.Add(Object{make([]float32, 8), nil}); err == nil {
		t.Error("zero-dim modality did not error")
	}
	c := &collection{dims: []int{4, 2}}
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
	if v := c.store.Modality(0, 0); v[0] != 0.6 || v[1] != 0.8 {
		t.Errorf("stored vector not normalized: %v", v)
	}
}

func TestEndToEndSearch(t *testing.T) {
	e, queries, truths := buildCorpus(t, 800, 30, 1, BuildOptions{Gamma: 16, Seed: 2})
	hits := 0
	for i, q := range queries {
		if slices.Contains(searchIDs(t, e, corpusQuery(q, 5, 200)), truths[i]) {
			hits++
		}
	}
	if hits < len(queries)*9/10 {
		t.Errorf("recall@5 = %d/%d on planted corpus", hits, len(queries))
	}
}

func TestLearnWeightsEndToEnd(t *testing.T) {
	e, queries, truths := corpusEngine(t, 400, 40, 3, BuildOptions{Gamma: 12, Seed: 5})
	named := make([]NamedVectors, len(queries))
	for i, q := range queries {
		named[i] = corpusQuery(q, 0, 0).Vectors
	}
	w, err := e.LearnWeights(named, truths, WeightConfig{Epochs: 60, Negatives: 5, LearningRate: 0.02, Seed: 4})
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
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if ids := searchIDs(t, e, corpusQuery(queries[0], 1, 100)); len(ids) != 1 {
		t.Fatalf("got %d matches", len(ids))
	}
}

// Engine and ShardedEngine train through the same learnWeights, so they
// reject the same malformed training sets.
func TestLearnWeightsValidation(t *testing.T) {
	e, queries, truths := corpusEngine(t, 100, 10, 6, BuildOptions{})
	s := newSharded(t, shardedObjects(100, 6), 3, false)
	named := make([]NamedVectors, len(queries))
	for i, q := range queries {
		named[i] = corpusQuery(q, 0, 0).Vectors
	}
	badPos := append([]int64(nil), truths...)
	badPos[0] = -1
	badDim := append([]NamedVectors(nil), named...)
	badDim[0] = NamedVectors{"a": {1}}
	badName := append([]NamedVectors(nil), named...)
	badName[0] = NamedVectors{"audio": randVec(rand.New(rand.NewSource(1)), 24)}
	for _, svc := range []Service{e, s} {
		if _, err := svc.LearnWeights(named, truths[:5], WeightConfig{}); err == nil {
			t.Errorf("%T: length mismatch did not error", svc)
		}
		if _, err := svc.LearnWeights(named, badPos, WeightConfig{Epochs: 1}); err == nil {
			t.Errorf("%T: unknown positive did not error", svc)
		}
		if _, err := svc.LearnWeights(badDim, truths, WeightConfig{Epochs: 1}); err == nil {
			t.Errorf("%T: wrong-dimension query did not error", svc)
		}
		if _, err := svc.LearnWeights(badName, truths, WeightConfig{Epochs: 1}); err == nil {
			t.Errorf("%T: unknown modality did not error", svc)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	empty, err := NewEngine(shardedSchema, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Build(); err == nil {
		t.Error("empty engine built")
	}
	if _, err := NewEngine(shardedSchema, EngineOptions{Weights: Weights{1}}); err == nil {
		t.Error("wrong weight count did not error")
	}
	for _, gamma := range []int{-1, maxGamma + 1, 1 << 30} {
		if _, err := NewEngine(shardedSchema, EngineOptions{Build: BuildOptions{Gamma: gamma}}); err == nil {
			t.Errorf("gamma %d accepted", gamma)
		}
	}
	if _, err := NewShardedEngine(shardedSchema, 2, EngineOptions{Build: BuildOptions{Gamma: maxGamma}}); err != nil {
		t.Errorf("gamma %d: %v", maxGamma, err)
	}
}

func TestUserDefinedWeightOverride(t *testing.T) {
	e, queries, _ := buildCorpus(t, 300, 10, 10, BuildOptions{Gamma: 12, Seed: 11})
	// Weight only modality "b": results must rank by attribute similarity.
	q := corpusQuery(queries[0], 5, 100)
	q.Weights = map[string]float32{"a": 0, "b": 1}
	resp, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 5 {
		t.Fatalf("got %d matches", len(resp.Matches))
	}
	for _, m := range resp.Matches {
		if m.ByModality["a"] != 0 {
			t.Errorf("zero-weighted modality contributed %v", m.ByModality["a"])
		}
	}
	q.Weights = map[string]float32{"c": 1}
	if _, err := e.Search(context.Background(), q); err == nil {
		t.Error("override for an unknown modality did not error")
	}
}

func TestMissingModalityQuery(t *testing.T) {
	e, queries, truths := buildCorpus(t, 300, 10, 12, BuildOptions{Gamma: 12, Seed: 13})
	// Drop the auxiliary modality (§IX single-modality input): a missing
	// vector is weighted zero for the query.
	ids := searchIDs(t, e, corpusQuery(Object{queries[0][0], nil}, 10, 150))
	if !slices.Contains(ids, truths[0]) {
		t.Error("target-only search missed the planted near-duplicate")
	}
}

func TestExactSearchMatchesIndexAtHighL(t *testing.T) {
	e, queries, _ := buildCorpus(t, 400, 10, 14, BuildOptions{Gamma: 16, Seed: 15})
	agree := 0
	for _, q := range queries {
		exact, err := e.ExactSearch(context.Background(), corpusQuery(q, 1, 0))
		if err != nil {
			t.Fatal(err)
		}
		if searchIDs(t, e, corpusQuery(q, 1, 400))[0] == exact.Matches[0].ID {
			agree++
		}
	}
	if agree < 9 {
		t.Errorf("index agreed with exact search on %d/10 queries", agree)
	}
}

// A built engine written to a file with WriteSnapshot loads back with the
// same weights and searches identically.
func TestSaveLoadIndex(t *testing.T) {
	e, queries, _ := buildCorpus(t, 200, 5, 16, BuildOptions{Gamma: 10, Seed: 17})
	if err := e.SetWeights(Weights{0.7, 0.3}); err != nil {
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
	a := searchIDs(t, e, corpusQuery(queries[0], 5, 80))
	b := searchIDs(t, loaded, corpusQuery(queries[0], 5, 80))
	if !slices.Equal(a, b) {
		t.Fatalf("loaded engine searches differently: %v vs %v", a, b)
	}
	if !slices.Equal(loaded.Weights(), e.Weights()) {
		t.Errorf("weights not restored: %v vs %v", loaded.Weights(), e.Weights())
	}
}

func TestSearchDefaults(t *testing.T) {
	e, queries, _ := buildCorpus(t, 200, 5, 18, BuildOptions{Gamma: 10, Seed: 19})
	q := corpusQuery(queries[0], 0, 0)
	if ids := searchIDs(t, e, q); len(ids) != 10 {
		t.Fatalf("default K: got %d matches", len(ids))
	}
	exact, err := e.ExactSearch(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Matches) != 10 {
		t.Fatalf("default K, exact: got %d matches", len(exact.Matches))
	}
}

// A negative K is an error on every search entry point, graph and
// exhaustive alike, single engine and sharded.
func TestSearchRejectsNegativeK(t *testing.T) {
	ctx := context.Background()
	e, queries, _ := buildCorpus(t, 100, 1, 20, BuildOptions{Gamma: 8, Seed: 21})
	s := newSharded(t, shardedObjects(90, 22), 3, true)
	q := corpusQuery(queries[0], -1, 0)
	for _, svc := range []Service{e, s} {
		if resp, err := svc.Search(ctx, q); err == nil {
			t.Errorf("%T.Search accepted K=-1 (%d matches)", svc, len(resp.Matches))
		}
		if resp, err := svc.ExactSearch(ctx, q); err == nil {
			t.Errorf("%T.ExactSearch accepted K=-1 (%d matches)", svc, len(resp.Matches))
		}
	}
}

func TestAddRejectsNonFinite(t *testing.T) {
	e, err := NewEngine(Schema{{Name: "a", Dim: 2}, {Name: "b", Dim: 2}}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nan := float32(math.NaN())
	if _, err := e.InsertObject(Object{{nan, 1}, {1, 0}}); err == nil {
		t.Error("NaN coordinate did not error")
	}
	inf := float32(math.Inf(1))
	if _, err := e.Insert(NamedVectors{"a": {1, 0}, "b": {inf, 0}}); err == nil {
		t.Error("Inf coordinate did not error")
	}
	if e.Len() != 0 {
		t.Error("rejected objects were stored")
	}
}

// A query coordinate that is NaN or ±Inf must be rejected, with the
// modality named, on every search entry point — not answered with NaN
// similarities. Every path converts through collection.query.
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
	}
}
