package must

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// Deletion semantics (§IX): tombstoned objects disappear from results but
// keep routing, and searches still reach everything else.
func TestDeleteExcludesFromResults(t *testing.T) {
	e, queries, truths := buildCorpus(t, 400, 10, 21, BuildOptions{Gamma: 14, Seed: 22})
	q := corpusQuery(queries[0], 3, 200)
	// Baseline: the planted answer is found.
	if searchIDs(t, e, q)[0] != truths[0] {
		t.Skip("planted answer not top-1 at this seed; deletion test needs it")
	}
	if err := e.Delete(truths[0]); err != nil {
		t.Fatal(err)
	}
	if e.Deleted() != 1 {
		t.Fatalf("Deleted() = %d", e.Deleted())
	}
	after := searchIDs(t, e, q)
	if slices.Contains(after, truths[0]) {
		t.Fatal("deleted object still returned")
	}
	if len(after) != 3 {
		t.Fatalf("got %d results after deletion, want 3", len(after))
	}
}

func TestDeleteIsIdempotentAndValidated(t *testing.T) {
	e, _, _ := buildCorpus(t, 100, 5, 23, BuildOptions{Gamma: 10, Seed: 24})
	if err := e.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(5); err != nil {
		t.Fatal(err)
	}
	if e.Deleted() != 1 {
		t.Fatalf("Deleted() = %d after double delete", e.Deleted())
	}
	for _, id := range []int64{-1, 100} {
		if err := e.Delete(id); !errors.Is(err, ErrUnknownID) {
			t.Errorf("Delete(%d) = %v, want ErrUnknownID", id, err)
		}
	}
}

// Mass deletion must not break routing: with half the corpus tombstoned,
// searches still return k live results.
func TestMassDeletionKeepsRouting(t *testing.T) {
	e, queries, _ := buildCorpus(t, 300, 10, 25, BuildOptions{Gamma: 12, Seed: 26})
	rng := rand.New(rand.NewSource(27))
	deleted := make(map[int64]bool)
	for i := 0; i < 150; i++ {
		id := int64(rng.Intn(300))
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted[id] = true
	}
	for _, q := range queries {
		ids := searchIDs(t, e, corpusQuery(q, 5, 250))
		if len(ids) != 5 {
			t.Fatalf("got %d live results, want 5", len(ids))
		}
		for _, id := range ids {
			if deleted[id] {
				t.Fatal("tombstoned object returned")
			}
		}
	}
}

// Rebuilding after deletions restores a clean index (the paper's periodic
// reconstruction).
func TestRebuildClearsTombstones(t *testing.T) {
	e, queries, _ := buildCorpus(t, 200, 5, 28, BuildOptions{Gamma: 10, Seed: 29})
	if err := e.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if e.Deleted() != 0 {
		t.Fatalf("rebuilt engine reports %d deletions", e.Deleted())
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 199 || st.TombstoneRatio != 0 {
		t.Fatalf("rebuilt stats: %d objects, tombstone ratio %v", st.Objects, st.TombstoneRatio)
	}
	if ids := searchIDs(t, e, corpusQuery(queries[0], 3, 0)); len(ids) != 3 {
		t.Fatalf("got %d results after rebuild", len(ids))
	}
}
