package must

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

func TestSearchBatchMatchesSerial(t *testing.T) {
	e, queries, _ := buildCorpus(t, 500, 30, 71, BuildOptions{Gamma: 14, Seed: 72})
	typed := make([]Query, len(queries))
	for i, q := range queries {
		typed[i] = corpusQuery(q, 5, 150)
	}
	batch, err := e.SearchBatch(context.Background(), typed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d result sets", len(batch))
	}
	for i, q := range typed {
		serial, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		// Pooled searchers advance their RNG across queries, so tie-breaks
		// may differ: top-1 must match unless the similarities tie.
		if len(batch[i].Matches) != len(serial.Matches) {
			t.Fatalf("query %d: %d vs %d results", i, len(batch[i].Matches), len(serial.Matches))
		}
		b, s := batch[i].Matches[0], serial.Matches[0]
		if b.ID != s.ID {
			if diff := b.Similarity - s.Similarity; diff > 1e-3 || diff < -1e-3 {
				t.Errorf("query %d: top-1 differs: batch %v serial %v", i, b, s)
			}
		}
	}
}

func TestSearchBatchValidation(t *testing.T) {
	e, queries, _ := buildCorpus(t, 100, 5, 73, BuildOptions{Gamma: 10, Seed: 74})
	ctx := context.Background()
	typed := make([]Query, len(queries))
	for i, q := range queries {
		typed[i] = corpusQuery(q, 3, 0)
	}
	bad := append([]Query(nil), typed...)
	bad[2] = Query{Vectors: NamedVectors{"a": {1}}, K: 3}
	if _, err := e.SearchBatch(ctx, bad, 2); err == nil {
		t.Error("invalid query in batch did not error")
	}
	bad[2] = typed[2]
	bad[2].Weights = map[string]float32{"c": 1}
	if _, err := e.SearchBatch(ctx, bad, 2); err == nil {
		t.Error("bad override weights did not error")
	}
	// Zero workers defaults sanely; empty batch is fine.
	out, err := e.SearchBatch(ctx, nil, 0)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
}

func TestSearchBatchRespectsDeletions(t *testing.T) {
	e, queries, truths := buildCorpus(t, 300, 10, 75, BuildOptions{Gamma: 12, Seed: 76})
	for _, id := range truths {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	typed := make([]Query, len(queries))
	for i, q := range queries {
		typed[i] = corpusQuery(q, 5, 150)
	}
	batch, err := e.SearchBatch(context.Background(), typed, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range batch {
		if slices.Contains(matchIDs(resp), truths[i]) {
			t.Fatal("batch search returned a tombstoned object")
		}
	}
}

// Iterative refinement (§IX): take a result's target vector from
// Engine.Object, pair it with a new auxiliary wish, and search again.
func TestQueryFromObject(t *testing.T) {
	e, queries, _ := buildCorpus(t, 400, 10, 77, BuildOptions{Gamma: 14, Seed: 78})
	rng := rand.New(rand.NewSource(79))

	// Round 1: normal search.
	picked := searchIDs(t, e, corpusQuery(queries[0], 1, 150))[0]

	// Round 2: refine — same target content, different auxiliary wish.
	stored, err := e.Object(picked)
	if err != nil {
		t.Fatal(err)
	}
	if stored["a"] == nil || stored["b"] == nil {
		t.Fatalf("stored object incomplete: %v", stored)
	}
	newAux := randVec(rng, 12)
	refined := Query{Vectors: NamedVectors{"a": stored["a"], "b": newAux}, K: 5, L: 150}
	if ids := searchIDs(t, e, refined); len(ids) != 5 {
		t.Fatalf("refined search returned %d results", len(ids))
	}

	// Validation.
	if _, err := e.Object(-1); err == nil {
		t.Error("bad id did not error")
	}
	bad := Query{Vectors: NamedVectors{"a": stored["a"], "c": newAux}, K: 5}
	if _, err := e.Search(context.Background(), bad); err == nil {
		t.Error("unknown aux modality did not error")
	}
	bad.Vectors = NamedVectors{"a": stored["a"], "b": make([]float32, 3)}
	if _, err := e.Search(context.Background(), bad); err == nil {
		t.Error("bad aux dim did not error")
	}
}

// A refined query without the auxiliary modality searches target-only via
// zero weight, and finds the object itself.
func TestQueryFromObjectMissingAux(t *testing.T) {
	e, _, _ := buildCorpus(t, 200, 5, 80, BuildOptions{Gamma: 10, Seed: 81})
	self, err := e.Object(7)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Vectors: NamedVectors{"a": self["a"]}, K: 3, L: 120, Weights: map[string]float32{"a": 1, "b": 0}}
	if ids := searchIDs(t, e, q); ids[0] != 7 {
		t.Errorf("self-query top-1 = %d, want 7", ids[0])
	}
}
