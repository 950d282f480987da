package search

import (
	"math/rand"
	"sync"
	"testing"

	"must/internal/vec"
)

// The index (graph + vectors) is read-only after build; one Searcher per
// goroutine must produce exactly the same results as serial execution.
func TestConcurrentSearchersAgreeWithSerial(t *testing.T) {
	_, st, w, g := buildFixture(t, 800, 31)
	rng := rand.New(rand.NewSource(32))
	const nq = 40
	queries := make([]vec.Multi, nq)
	for i := range queries {
		queries[i] = randomQuery(rng)
	}

	serial := make([][]Result, nq)
	s := NewFlat(g, st, w)
	for i, q := range queries {
		res, _, err := s.Search(q, 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		// Search returns a view into the searcher's reusable buffer; copy
		// before the next call overwrites it.
		serial[i] = CloneResults(res)
	}

	parallel := make([][]Result, nq)
	var wg sync.WaitGroup
	const workers = 4
	wg.Add(workers)
	for wkr := 0; wkr < workers; wkr++ {
		go func(wkr int) {
			defer wg.Done()
			// One searcher per goroutine, serving every workers-th query:
			// an answer does not depend on the queries served before it.
			local := NewFlat(g, st, w)
			for i := wkr; i < nq; i += workers {
				res, _, err := local.Search(queries[i], 10, 100)
				if err != nil {
					t.Error(err)
					return
				}
				parallel[i] = CloneResults(res)
			}
		}(wkr)
	}
	wg.Wait()

	for i := range serial {
		if len(serial[i]) != len(parallel[i]) {
			t.Fatalf("query %d: result count differs", i)
		}
		for j := range serial[i] {
			if serial[i][j].ID != parallel[i][j].ID {
				t.Fatalf("query %d rank %d: %d vs %d", i, j, serial[i][j].ID, parallel[i][j].ID)
			}
		}
	}
}

// Tombstones shared across searchers: flipping entries between searches
// is visible to existing searchers (documented sharing semantics).
func TestTombstonesSharedSemantics(t *testing.T) {
	objects, st, w, g := buildFixture(t, 300, 33)
	dead := make([]bool, len(objects))
	s := NewFlat(g, st, w)
	rng := rand.New(rand.NewSource(34))
	q := randomQuery(rng)
	p := Params{K: 5, L: 150, Optimize: true, Tombstones: dead}
	before, _, err := s.SearchParams(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("no results")
	}
	deadID := before[0].ID // before aliases the searcher's buffer; save the ID
	dead[deadID] = true
	after, _, err := s.SearchParams(q, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if r.ID == deadID {
			t.Fatal("tombstoned-after-the-fact object still returned")
		}
	}
	if len(after) != 5 {
		t.Fatalf("got %d results, want 5", len(after))
	}
}
