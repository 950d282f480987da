package search

import (
	"math/rand"
	"testing"

	"must/internal/vec"
)

// quantFixture builds a fused setup with a trained SQ8 shadow store.
func quantFixture(t testing.TB, n int, seed int64) (*Searcher, []vec.Multi, vec.Weights, *vec.FlatStore) {
	t.Helper()
	objects, store, w, g := buildFixture(t, n, seed)
	store.EnableSQ8()
	store.SyncSQ8()
	return NewFlat(g, store, w), objects, w, store
}

func TestQuantizedSearchRecall(t *testing.T) {
	s, objects, w, _ := quantFixture(t, 2000, 31)
	rng := rand.New(rand.NewSource(32))
	const k, l = 10, 200
	qHits, fHits, total := 0, 0, 0
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(rng)
		want := exactTopK(objects, w, q, k)
		in := make(map[int]bool, len(want))
		for _, id := range want {
			in[id] = true
		}
		qGot, _, err := s.SearchParams(q, Params{K: k, L: l, Optimize: true, Quantized: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range qGot {
			if in[r.ID] {
				qHits++
			}
		}
		fGot, _, err := s.SearchParams(q, Params{K: k, L: l, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range fGot {
			if in[r.ID] {
				fHits++
			}
		}
		total += k
	}
	qRecall := float64(qHits) / float64(total)
	fRecall := float64(fHits) / float64(total)
	t.Logf("recall@%d over %d queries: quantized %.3f, float32 %.3f", k, total/k, qRecall, fRecall)
	// The floor is relative to the float32 beam search on the same
	// fixture: quantization (with the default 4·k exact re-rank) may cost
	// at most 5 points of recall on top of whatever the routing itself
	// loses on this deliberately noisy corpus.
	if qRecall < fRecall-0.05 {
		t.Fatalf("quantized recall@%d = %.3f, float32 path = %.3f; want within 0.05", k, qRecall, fRecall)
	}
}

// TestQuantizedRerankScoresExact locks the re-rank contract: every
// returned result carries its exact float32 joint IP (default re-rank
// depth 4·k covers the whole returned slice), not the quantized
// approximation routing used.
func TestQuantizedRerankScoresExact(t *testing.T) {
	s, _, w, store := quantFixture(t, 800, 57)
	rng := rand.New(rand.NewSource(58))
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng)
		got, _, err := s.SearchParams(q, Params{K: 10, L: 100, Optimize: true, Quantized: true})
		if err != nil {
			t.Fatal(err)
		}
		exact := vec.NewFlatScanner(store, w, q)
		for _, r := range got {
			if want := exact.FullIP(store.Row(r.ID)); r.IP != want {
				t.Fatalf("trial %d id %d: result IP %v != exact %v", trial, r.ID, r.IP, want)
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i].IP > got[i-1].IP {
				t.Fatalf("trial %d: re-ranked results out of order at %d", trial, i)
			}
		}
	}
}

// TestQuantizedFallsBackWithoutShadow: Params.Quantized on a store with no
// trained shadow must silently serve the exact path with identical results.
func TestQuantizedFallsBackWithoutShadow(t *testing.T) {
	_, st, w, g := buildFixture(t, 600, 41)
	s := NewFlat(g, st, w)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		q := randomQuery(rng)
		p := Params{K: 10, L: 100, Optimize: true}
		want, _, err := s.SearchParams(q, p)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := append([]int(nil), IDs(want)...)
		p.Quantized = true
		got, _, err := s.SearchParams(q, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range IDs(got) {
			if id != wantIDs[i] {
				t.Fatalf("trial %d: fallback results differ at rank %d: %d vs %d", trial, i, id, wantIDs[i])
			}
		}
	}
}

// TestQuantizedSteadyStateZeroAllocs: the quantized scan + re-rank path
// must stay allocation-free once the reusable buffers are warm, like the
// float32 path (TestSearchSteadyStateZeroAllocs).
func TestQuantizedSteadyStateZeroAllocs(t *testing.T) {
	s, _, _, _ := quantFixture(t, 600, 83)
	rng := rand.New(rand.NewSource(84))
	queries := make([]vec.Multi, 8)
	for i := range queries {
		queries[i] = randomQuery(rng)
	}
	p := Params{K: 10, L: 200, Optimize: true, Quantized: true}
	for _, q := range queries {
		if _, _, err := s.SearchParams(q, p); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(40, func() {
		q := queries[i%len(queries)]
		i++
		if _, _, err := s.SearchParams(q, p); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state quantized search allocates %.2f times per call, want 0", avg)
	}
}

// TestQuantizedTombstonesAndFilter: routing over codes must still honor
// tombstones and filters on the way out.
func TestQuantizedTombstonesAndFilter(t *testing.T) {
	s, _, _, _ := quantFixture(t, 600, 19)
	rng := rand.New(rand.NewSource(20))
	q := randomQuery(rng)
	dead := make([]bool, 600)
	base, _, err := s.SearchParams(q, Params{K: 5, L: 100, Optimize: true, Quantized: true})
	if err != nil {
		t.Fatal(err)
	}
	banned := base[0].ID
	dead[banned] = true
	got, _, err := s.SearchParams(q, Params{
		K: 5, L: 100, Optimize: true, Quantized: true,
		Tombstones: dead,
		Filter:     func(id int) bool { return id%2 == banned%2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID == banned {
			t.Fatal("tombstoned object returned")
		}
		if r.ID%2 != banned%2 {
			t.Fatalf("filtered-out object %d returned", r.ID)
		}
	}
}
