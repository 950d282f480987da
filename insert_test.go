package must

import (
	"math/rand"
	"slices"
	"testing"
)

// Incremental insertion (§IX): a newly inserted object becomes findable
// without a rebuild.
func TestInsertThenFind(t *testing.T) {
	e, _, _ := buildCorpus(t, 400, 10, 41, BuildOptions{Gamma: 14, Seed: 42})
	rng := rand.New(rand.NewSource(43))
	img := randVec(rng, 24)
	txt := randVec(rng, 12)
	id, err := e.InsertObject(Object{img, txt})
	if err != nil {
		t.Fatal(err)
	}
	if id != 400 {
		t.Fatalf("insert id = %d, want 400", id)
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 401 {
		t.Fatalf("stats objects = %d", st.Objects)
	}
	// Query with a perturbation of the inserted object: it must be top-1.
	q := corpusQuery(Object{perturb(rng, img, 0.02), perturb(rng, txt, 0.02)}, 3, 200)
	if got := searchIDs(t, e, q)[0]; got != id {
		t.Errorf("inserted object not top-1: got %d", got)
	}
}

func TestInsertManyKeepsRecall(t *testing.T) {
	e, queries, truths := buildCorpus(t, 300, 10, 44, BuildOptions{Gamma: 14, Seed: 45})
	rng := rand.New(rand.NewSource(46))
	// Insert 100 background objects.
	for i := 0; i < 100; i++ {
		if _, err := e.InsertObject(Object{randVec(rng, 24), randVec(rng, 12)}); err != nil {
			t.Fatal(err)
		}
	}
	hits := 0
	for i, q := range queries {
		if slices.Contains(searchIDs(t, e, corpusQuery(q, 5, 200)), truths[i]) {
			hits++
		}
	}
	if hits < len(queries)*8/10 {
		t.Errorf("recall@5 after 100 inserts = %d/%d", hits, len(queries))
	}
}

func TestInsertValidation(t *testing.T) {
	e, _, _ := buildCorpus(t, 100, 5, 47, BuildOptions{Gamma: 10, Seed: 48})
	if _, err := e.InsertObject(Object{make([]float32, 24)}); err == nil {
		t.Error("wrong modality count did not error")
	}
	if _, err := e.InsertObject(Object{make([]float32, 3), make([]float32, 12)}); err == nil {
		t.Error("wrong dim did not error")
	}
	if e.Len() != 100 {
		t.Errorf("rejected inserts changed Len to %d", e.Len())
	}
}

// Insert and delete interplay: tombstone an inserted object.
func TestInsertThenDelete(t *testing.T) {
	e, _, _ := buildCorpus(t, 200, 5, 49, BuildOptions{Gamma: 10, Seed: 50})
	// Delete something first so the bitset exists at the pre-insert size,
	// then insert and delete the new object — the bitset must grow.
	if err := e.Delete(0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	img := randVec(rng, 24)
	txt := randVec(rng, 12)
	id, err := e.InsertObject(Object{img, txt})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	if e.Deleted() != 2 {
		t.Fatalf("Deleted() = %d, want 2", e.Deleted())
	}
	q := corpusQuery(Object{perturb(rng, img, 0.02), perturb(rng, txt, 0.02)}, 3, 150)
	if slices.Contains(searchIDs(t, e, q), id) {
		t.Fatal("deleted insert still returned")
	}
}
