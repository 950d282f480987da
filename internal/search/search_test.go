package search

import (
	"math"
	"math/rand"
	"testing"

	"must/internal/graph"
	"must/internal/vec"
)

// buildFixture constructs a small fused setup: clustered 2-modality
// objects packed into one store, uniform-ish weights, and an "Ours"
// pipeline graph over that store.
func buildFixture(t testing.TB, n int, seed int64) ([]vec.Multi, *vec.FlatStore, vec.Weights, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const clusters = 8
	centersA := make([][]float32, clusters)
	centersB := make([][]float32, clusters)
	for i := range centersA {
		centersA[i] = vec.RandUnit(rng, 24)
		centersB[i] = vec.RandUnit(rng, 12)
	}
	objects := make([]vec.Multi, n)
	for i := range objects {
		c := rng.Intn(clusters)
		objects[i] = vec.Multi{
			vec.AddGaussianNoise(rng, centersA[c], 0.7),
			vec.AddGaussianNoise(rng, centersB[c], 0.7),
		}
	}
	w := vec.Weights{0.8, 0.5}
	st := vec.FlatFromMulti(objects)
	g, err := graph.Ours(16, 3, seed).Build(graph.NewFusedSpaceFromStore(st, w))
	if err != nil {
		t.Fatal(err)
	}
	return objects, st, w, g
}

// exactTopK computes the exact top-k by joint IP for reference, through
// vec.JointIP — arithmetic independent of the scanner under test.
func exactTopK(objects []vec.Multi, w vec.Weights, q vec.Multi, k int) []int {
	type pair struct {
		id int
		ip float32
	}
	best := make([]pair, 0, k+1)
	for i, o := range objects {
		ip := vec.JointIP(w, q, o)
		pos := len(best)
		for pos > 0 && best[pos-1].ip < ip {
			pos--
		}
		if pos >= k {
			continue
		}
		best = append(best, pair{})
		copy(best[pos+1:], best[pos:])
		best[pos] = pair{i, ip}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int, len(best))
	for i, p := range best {
		out[i] = p.id
	}
	return out
}

func randomQuery(rng *rand.Rand) vec.Multi {
	return vec.Multi{vec.RandUnit(rng, 24), vec.RandUnit(rng, 12)}
}

func TestSearchFindsExactTopKAtHighBeam(t *testing.T) {
	objects, st, w, g := buildFixture(t, 1500, 1)
	s := NewFlat(g, st, w)
	rng := rand.New(rand.NewSource(2))
	var recall float64
	const queries = 30
	const k = 10
	for qi := 0; qi < queries; qi++ {
		q := randomQuery(rng)
		truth := exactTopK(objects, w, q, k)
		got, _, err := s.Search(q, k, 400)
		if err != nil {
			t.Fatal(err)
		}
		in := make(map[int]bool, k)
		for _, id := range truth {
			in[id] = true
		}
		hits := 0
		for _, r := range got {
			if in[r.ID] {
				hits++
			}
		}
		recall += float64(hits) / float64(k)
	}
	recall /= queries
	if recall < 0.95 {
		t.Errorf("recall@10 = %v at l=400, want >= 0.95", recall)
	}
}

func TestSearchRecallIncreasesWithL(t *testing.T) {
	objects, st, w, g := buildFixture(t, 1200, 3)
	rng := rand.New(rand.NewSource(4))
	queries := make([]vec.Multi, 20)
	truths := make([][]int, 20)
	for i := range queries {
		queries[i] = randomQuery(rng)
		truths[i] = exactTopK(objects, w, queries[i], 10)
	}
	recallAt := func(l int) float64 {
		s := NewFlat(g, st, w)
		var total float64
		for i, q := range queries {
			got, _, err := s.Search(q, 10, l)
			if err != nil {
				t.Fatal(err)
			}
			in := make(map[int]bool)
			for _, id := range truths[i] {
				in[id] = true
			}
			hits := 0
			for _, r := range got {
				if in[r.ID] {
					hits++
				}
			}
			total += float64(hits) / 10
		}
		return total / float64(len(queries))
	}
	r20, r200 := recallAt(20), recallAt(200)
	if r200 < r20 {
		t.Errorf("recall did not increase with l: l=20 → %v, l=200 → %v (Tab. XII shape)", r20, r200)
	}
	if r200 < 0.8 {
		t.Errorf("recall at l=200 = %v, too low", r200)
	}
}

// Lemma 4: the optimization must not change results at all.
func TestOptimizationPreservesResults(t *testing.T) {
	_, st, w, g := buildFixture(t, 1000, 5)
	rng := rand.New(rand.NewSource(6))
	on := NewFlat(g, st, w)
	off := NewFlat(g, st, w)
	for qi := 0; qi < 25; qi++ {
		q := randomQuery(rng)
		a, statsOn, err := on.SearchParams(q, Params{K: 10, L: 100, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		b, statsOff, err := off.SearchParams(q, Params{K: 10, L: 100, Optimize: false})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("query %d: rank %d differs: %d vs %d", qi, i, a[i].ID, b[i].ID)
			}
		}
		if statsOn.PartialSkips == 0 {
			t.Error("optimization never skipped a candidate; not exercising Lemma 4")
		}
		if statsOff.PartialSkips != 0 {
			t.Error("disabled optimization reported partial skips")
		}
		if statsOn.FullEvals >= statsOff.FullEvals+statsOn.PartialSkips+1 {
			t.Errorf("optimization did not reduce full evaluations: on=%d off=%d", statsOn.FullEvals, statsOff.FullEvals)
		}
	}
}

// Lemma 3: the sum of IPs in the result pool is non-decreasing over
// iterations. We verify the observable consequence: the final pool's worst
// IP is at least the initial pool's worst IP, and results are sorted.
func TestResultsSortedDescending(t *testing.T) {
	_, st, w, g := buildFixture(t, 800, 7)
	s := NewFlat(g, st, w)
	rng := rand.New(rand.NewSource(8))
	for qi := 0; qi < 10; qi++ {
		got, _, err := s.Search(randomQuery(rng), 20, 60)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i].IP > got[i-1].IP {
				t.Fatalf("results not sorted: %v then %v", got[i-1].IP, got[i].IP)
			}
		}
	}
}

func TestSearchParameterValidation(t *testing.T) {
	_, st, w, g := buildFixture(t, 200, 9)
	s := NewFlat(g, st, w)
	q := vec.Multi{make([]float32, 24), make([]float32, 12)}
	if _, _, err := s.Search(q, 0, 10); err == nil {
		t.Error("k=0 did not error")
	}
	if _, _, err := s.Search(q, 10, 5); err == nil {
		t.Error("l<k did not error")
	}
	if _, _, err := s.Search(vec.Multi{make([]float32, 24)}, 1, 10); err == nil {
		t.Error("modality count mismatch did not error")
	}
}

func TestSearchLLargerThanN(t *testing.T) {
	_, st, w, g := buildFixture(t, 50, 10)
	s := NewFlat(g, st, w)
	rng := rand.New(rand.NewSource(11))
	got, _, err := s.Search(randomQuery(rng), 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results", len(got))
	}
}

// Missing query modalities: zero weight must reproduce single-modality
// search (§VII-B, t != m).
func TestZeroWeightIgnoresModality(t *testing.T) {
	_, st, _, _ := buildFixture(t, 600, 12)
	wTargetOnly := vec.Weights{1, 0}
	g, err := graph.Ours(16, 3, 13).Build(graph.NewFusedSpaceFromStore(st, wTargetOnly))
	if err != nil {
		t.Fatal(err)
	}
	s := NewFlat(g, st, wTargetOnly)
	rng := rand.New(rand.NewSource(14))
	q := randomQuery(rng)
	// Corrupt the auxiliary modality — it must not affect results.
	q2 := vec.Multi{q[0], vec.RandUnit(rng, 12)}
	a, _, err := s.Search(q, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	a = CloneResults(a) // the next call on s reuses the result buffer
	b, _, err := s.Search(q2, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("zero-weight modality affected results: %v vs %v", a, b)
		}
	}
}

func TestSearcherReuseAcrossQueries(t *testing.T) {
	_, st, w, g := buildFixture(t, 500, 15)
	s := NewFlat(g, st, w)
	rng := rand.New(rand.NewSource(16))
	q1 := randomQuery(rng)
	first, _, err := s.Search(q1, 5, 80)
	if err != nil {
		t.Fatal(err)
	}
	first = CloneResults(first)
	// Interleave a different query, then repeat the first: state reset
	// must make the repeat identical.
	if _, _, err := s.Search(randomQuery(rng), 5, 80); err != nil {
		t.Fatal(err)
	}
	again, _, err := s.Search(q1, 5, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 5 || !sameResults(first, again) {
		t.Fatalf("repeat of the first query: %v, first answer %v", again, first)
	}
}

// sameResults reports whether a and b hold the same IDs with bit-identical
// similarities, in order.
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].IP) != math.Float32bits(b[i].IP) {
			return false
		}
	}
	return true
}

// A pooled searcher must answer every query exactly as a fresh one does,
// whatever it served before and whatever l those searches asked for.
func TestReusedSearcherMatchesFresh(t *testing.T) {
	_, st, w, g := buildFixture(t, 2000, 31)
	reused := NewFlat(g, st, w)
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 200; i++ {
		q := randomQuery(rng)
		l := []int{20, 60, 12, 20}[i%4]
		got, gotStats, err := reused.Search(q, 10, l)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := NewFlat(g, st, w).Search(q, 10, l)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(got, want) || gotStats != wantStats {
			t.Fatalf("query %d, l=%d: reused %v %+v, fresh %v %+v", i, l, got, gotStats, want, wantStats)
		}
	}
}

func TestIDs(t *testing.T) {
	rs := []Result{{ID: 3}, {ID: 1}}
	ids := IDs(rs)
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 1 {
		t.Errorf("IDs = %v", ids)
	}
}

func TestModalityView(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	objects := []vec.Multi{
		{vec.RandUnit(rng, 8), vec.RandUnit(rng, 4)},
		{vec.RandUnit(rng, 8), vec.RandUnit(rng, 4)},
	}
	view := ModalityView(objects, 1)
	if len(view) != 2 {
		t.Fatal("view size")
	}
	for i := range view {
		if len(view[i]) != 1 {
			t.Fatal("view must be single-modality")
		}
		if &view[i][0][0] != &objects[i][1][0] {
			t.Error("view must alias the original vectors, not copy")
		}
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	s := NewFlat(graph.NewCSR(nil, 0), nil, vec.Weights{1})
	got, _, err := s.Search(vec.Multi{}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty index returned %d results", len(got))
	}
}

func TestStatsHopsPositive(t *testing.T) {
	_, st, w, g := buildFixture(t, 400, 18)
	s := NewFlat(g, st, w)
	_, stats, err := s.Search(randomQuery(rand.New(rand.NewSource(19))), 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hops == 0 {
		t.Error("search reported zero hops")
	}
	if stats.FullEvals == 0 {
		t.Error("search reported zero evaluations")
	}
}
