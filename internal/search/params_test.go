package search

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"must/internal/vec"
)

// countdownCtx is a context whose Err() starts returning Canceled after a
// fixed number of polls — it deterministically triggers the periodic
// in-loop cancellation check rather than the entry check.
type countdownCtx struct {
	remaining int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestSearchParamsContextCancelledAtEntry(t *testing.T) {
	objects, st, w, g := buildFixture(t, 400, 3)
	s := NewFlat(g, st, w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := objects[7]
	_, _, err := s.SearchParams(q, Params{K: 5, L: 100, Optimize: true, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSearchParamsContextCancelledMidSearch(t *testing.T) {
	objects, st, w, g := buildFixture(t, 2000, 3)
	s := NewFlat(g, st, w)
	q := objects[7]
	// One poll happens at entry and one at the first routing hop; allowing
	// exactly those two makes the next periodic poll fail mid-routing.
	ctx := &countdownCtx{remaining: 2}
	_, stats, err := s.SearchParams(q, Params{K: 5, L: 400, Optimize: true, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if stats.Hops == 0 || stats.Hops > ctxCheckInterval {
		t.Fatalf("cancellation not mid-search: %d hops", stats.Hops)
	}
	// The searcher must remain usable after an aborted search.
	res, _, err := s.SearchParams(q, Params{K: 5, L: 400, Optimize: true})
	if err != nil || len(res) != 5 {
		t.Fatalf("searcher broken after cancellation: %v, %d results", err, len(res))
	}
}

func TestSearchParamsBreakdownSumsToJointIP(t *testing.T) {
	objects, st, w, g := buildFixture(t, 600, 5)
	s := NewFlat(g, st, w)
	q := objects[11]
	res, _, err := s.SearchParams(q, Params{K: 10, L: 200, Optimize: true, Breakdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for _, r := range res {
		if len(r.PerModality) != len(q) {
			t.Fatalf("result %d: %d modality contributions, want %d", r.ID, len(r.PerModality), len(q))
		}
		var sum float32
		for _, x := range r.PerModality {
			sum += x
		}
		if diff := math.Abs(float64(sum - r.IP)); diff > 1e-4 {
			t.Errorf("result %d: contributions sum to %.6f, joint IP %.6f", r.ID, sum, r.IP)
		}
	}
	// Without Breakdown the field stays nil (no extra work on the hot path).
	res, _, err = s.SearchParams(q, Params{K: 5, L: 200, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.PerModality != nil {
			t.Fatal("PerModality populated without Breakdown")
		}
	}
}

func TestSearchParamsPerCallWeightOverride(t *testing.T) {
	objects, st, w, g := buildFixture(t, 600, 7)
	s := NewFlat(g, st, w)
	q := vec.Multi{vec.RandUnit(rand.New(rand.NewSource(1)), 24), vec.RandUnit(rand.New(rand.NewSource(2)), 12)}
	over := vec.Weights{1, 0}
	res, _, err := s.SearchParams(q, Params{K: 5, L: 200, Optimize: true, Weights: over, Breakdown: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.PerModality[1] != 0 {
			t.Errorf("zero-weighted modality contributed %f", r.PerModality[1])
		}
	}
	// The same searcher still honors its constructor weights afterwards.
	want := exactTopK(objects, w, q, 5)
	got, _, err := s.Search(q, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	overlap := 0
	for _, r := range got {
		for _, id := range want {
			if r.ID == id {
				overlap++
			}
		}
	}
	if overlap == 0 {
		t.Error("constructor-weight search found none of the exact top-5")
	}
}

// Search(q, k, l) is SearchParams with only K, L and Optimize set: two
// fresh searchers (both seeded 1) must return identical results.
func TestLegacySearchMatchesSearchParams(t *testing.T) {
	objects, st, w, g := buildFixture(t, 500, 9)
	s1 := NewFlat(g, st, w)
	s2 := NewFlat(g, st, w)
	q := objects[42]
	a, _, err := s1.Search(q, 5, 150)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s2.SearchParams(q, Params{K: 5, L: 150, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].IP != b[i].IP {
			t.Fatalf("rank %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
