package search

import (
	"math/rand"
	"testing"
	"testing/quick"

	"must/internal/vec"
)

// Structural properties of every search result set, checked over random
// queries: IDs unique and in range, similarities sorted descending, size
// exactly min(k, n), and the reported IP matching a direct recomputation.
func TestSearchResultInvariants(t *testing.T) {
	objects, st, w, g := buildFixture(t, 700, 61)
	s := NewFlat(g, st, w)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng)
		k := 1 + rng.Intn(20)
		l := k + rng.Intn(100)
		res, _, err := s.Search(q, k, l)
		if err != nil {
			t.Logf("search error: %v", err)
			return false
		}
		if len(res) != k {
			t.Logf("got %d results, want %d", len(res), k)
			return false
		}
		seen := map[int]bool{}
		for i, r := range res {
			if r.ID < 0 || r.ID >= len(objects) {
				t.Logf("id %d out of range", r.ID)
				return false
			}
			if seen[r.ID] {
				t.Logf("duplicate id %d", r.ID)
				return false
			}
			seen[r.ID] = true
			if i > 0 && res[i-1].IP < r.IP {
				t.Logf("not sorted at rank %d", i)
				return false
			}
			want := vec.JointIP(w, q, objects[r.ID])
			if d := want - r.IP; d > 1e-4 || d < -1e-4 {
				t.Logf("ip mismatch for %d: %v vs %v", r.ID, r.IP, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(62))}); err != nil {
		t.Error(err)
	}
}

// Property: the best result never gets worse as l grows (larger beams
// explore supersets in expectation; with the shared seed pool the top-1 IP
// is monotone non-decreasing for nested beams on the same query).
func TestTop1ImprovesWithBeam(t *testing.T) {
	_, st, w, g := buildFixture(t, 700, 63)
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(rng)
		var prev float32 = -1 << 30
		for _, l := range []int{10, 40, 160, 640} {
			s := NewFlat(g, st, w)
			res, _, err := s.Search(q, 1, l)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) == 0 {
				t.Fatal("no results")
			}
			// Allow a hair of float slack: pools are not strictly nested
			// because random initialization differs per l.
			if res[0].IP < prev-0.05 {
				t.Errorf("trial %d: top-1 IP degraded sharply with beam growth: %v -> %v at l=%d",
					trial, prev, res[0].IP, l)
			}
			if res[0].IP > prev {
				prev = res[0].IP
			}
		}
	}
}
