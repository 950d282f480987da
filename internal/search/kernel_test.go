package search

import (
	"math/rand"
	"testing"

	"must/internal/vec"
)

// The fused flat kernel and the legacy per-modality kernel must return
// the same ranked IDs with matching similarities: the flat path changes
// memory layout and arithmetic grouping, not semantics.
func TestFlatAndLegacyKernelsAgree(t *testing.T) {
	objects, w, g := buildFixture(t, 900, 71)
	flat := New(g, objects, w)
	legacy := New(g, objects, w, WithFlatKernel(false))
	rng := rand.New(rand.NewSource(72))
	for qi := 0; qi < 20; qi++ {
		q := randomQuery(rng)
		a, aStats, err := flat.Search(q, 10, 120)
		if err != nil {
			t.Fatal(err)
		}
		b, bStats, err := legacy.Search(q, 10, 120)
		if err != nil {
			t.Fatal(err)
		}
		// The same hops, Lemma 4 skips and full evaluations: the two
		// kernels route identically, however the flat one batches its rows.
		if aStats != bStats {
			t.Fatalf("query %d: flat stats %+v, legacy %+v", qi, aStats, bStats)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: result counts differ: %d vs %d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("query %d rank %d: flat %d vs legacy %d", qi, i, a[i].ID, b[i].ID)
			}
			d := float64(a[i].IP - b[i].IP)
			if d > 1e-5 || d < -1e-5 {
				t.Fatalf("query %d rank %d: similarity drift %v vs %v", qi, i, a[i].IP, b[i].IP)
			}
		}
	}
}

// NewFlat over a shared store must behave like New over the original
// multi-vectors, including per-modality breakdowns derived from store
// views.
func TestNewFlatSharedStoreMatchesNew(t *testing.T) {
	objects, w, g := buildFixture(t, 700, 73)
	store := vec.FlatFromMulti(objects)
	shared := NewFlat(g, store, w)
	private := New(g, objects, w)
	rng := rand.New(rand.NewSource(74))
	for qi := 0; qi < 10; qi++ {
		q := randomQuery(rng)
		p := Params{K: 5, L: 90, Optimize: true, Breakdown: true}
		a, _, err := shared.SearchParams(q, p)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := private.SearchParams(q, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].IP != b[i].IP {
				t.Fatalf("query %d rank %d: shared (%d,%v) vs private (%d,%v)",
					qi, i, a[i].ID, a[i].IP, b[i].ID, b[i].IP)
			}
			for m := range a[i].PerModality {
				if a[i].PerModality[m] != b[i].PerModality[m] {
					t.Fatalf("query %d rank %d: breakdowns differ", qi, i)
				}
			}
		}
	}
}
