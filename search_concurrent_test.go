package must

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// searchConcurrently answers queries with concurrent Search calls from
// workers goroutines (query i on goroutine i mod workers) and reports
// each query's response and error in its own slot.
func searchConcurrently(ctx context.Context, e *Engine, queries []Query, workers int) ([]*Response, []error) {
	out := make([]*Response, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				out[i], errs[i] = e.Search(ctx, queries[i])
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// searchAll runs searchConcurrently, failing on any per-query error.
func searchAll(t *testing.T, e *Engine, queries []Query, workers int) []*Response {
	t.Helper()
	out, errs := searchConcurrently(context.Background(), e, queries, workers)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	return out
}

// TestSearchEachPerQueryErrors checks that one bad query among
// concurrent good ones fails alone: every other query still runs and
// returns its result (the serving-tier contract — a malformed request
// must not poison the requests served beside it).
func TestSearchEachPerQueryErrors(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)
	good := Query{Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)}, K: 5}
	queries := []Query{
		good,
		{Vectors: NamedVectors{"sound": engRandVec(rng, 4)}}, // unknown modality
		good,
		{Vectors: NamedVectors{"image": engRandVec(rng, 3)}}, // wrong dim
		{Vectors: NamedVectors{"image": nil, "text": nil}},   // no active modality
		good,
	}
	out, errs := searchConcurrently(context.Background(), e, queries, 2)
	if len(out) != len(queries) || len(errs) != len(queries) {
		t.Fatalf("got %d responses, %d errors for %d queries", len(out), len(errs), len(queries))
	}
	for i, wantErr := range []bool{false, true, false, true, true, false} {
		if wantErr {
			if errs[i] == nil || out[i] != nil {
				t.Errorf("query %d: want error, got resp=%v err=%v", i, out[i], errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("query %d: unexpected error %v", i, errs[i])
			continue
		}
		if out[i] == nil || len(out[i].Matches) != 5 {
			t.Errorf("query %d: want 5 matches, got %+v", i, out[i])
		}
	}
}

// TestSearchEachRequestMatchedResults hammers Search from many goroutines
// under -race, each querying with exact stored vectors: the top match of
// query i must be the object whose vectors query i asked for, proving
// results are never crossed between concurrent searches or torn by
// pooled-searcher reuse.
func TestSearchEachRequestMatchedResults(t *testing.T) {
	const n = 400
	e, rng := newBuiltEngine(t, n)
	// Re-fetch stored vectors so queries are bit-identical to corpus rows
	// (Insert normalizes; Object returns the normalized copy).
	ids := make([]int64, 0, 32)
	objs := make([]NamedVectors, 0, 32)
	for i := 0; i < 32; i++ {
		id := int64(rng.Intn(n))
		o, err := e.Object(id)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		objs = append(objs, o)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				// Each round uses a goroutine-specific rotation so
				// concurrent rounds ask for different objects in the
				// same slot.
				queries := make([]Query, len(objs))
				want := make([]int64, len(objs))
				for i := range objs {
					j := (i + g + round) % len(objs)
					queries[i] = Query{Vectors: objs[j], K: 3}
					want[i] = ids[j]
				}
				out, errs := searchConcurrently(context.Background(), e, queries, 4)
				for i := range out {
					if errs[i] != nil {
						t.Errorf("g%d r%d slot %d: %v", g, round, i, errs[i])
						continue
					}
					if len(out[i].Matches) == 0 || out[i].Matches[0].ID != want[i] {
						t.Errorf("g%d r%d slot %d: top match %+v, want id %d",
							g, round, i, out[i].Matches, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSearchEachCancellation checks a cancelled context fails each
// query with a context error and returns promptly, and that answers
// already returned are unaffected by later cancellation.
func TestSearchEachCancellation(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)
	q := Query{Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)}, K: 3}

	ctx, cancel := context.WithCancel(context.Background())
	done, errsDone := searchConcurrently(ctx, e, []Query{q, q}, 2)
	for i := range done {
		if errsDone[i] != nil {
			t.Fatalf("pre-cancel slot %d: %v", i, errsDone[i])
		}
	}
	keepID, keepSim := done[0].Matches[0].ID, done[0].Matches[0].Similarity
	cancel()
	// Already-cancelled context: every query reports the context error.
	out, errs := searchConcurrently(ctx, e, []Query{q, q, q}, 2)
	for i := range errs {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("slot %d: want context.Canceled, got %v (resp %v)", i, errs[i], out[i])
		}
	}
	// Responses produced before the cancel are owned copies, untouched.
	if done[0].Matches[0].ID != keepID || done[0].Matches[0].Similarity != keepSim {
		t.Errorf("earlier response mutated after cancel: %+v != {%d %v}", done[0].Matches[0], keepID, keepSim)
	}
}

// TestSearchEachResultsAreOwnedCopies verifies responses do not alias
// pooled searcher buffers: matches captured from one search stay
// byte-identical after the same searchers serve many further searches.
func TestSearchEachResultsAreOwnedCopies(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)
	q := Query{Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)}, K: 10}
	out, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([]ScoredMatch, len(out.Matches))
	copy(snap, out.Matches)
	for i := 0; i < 50; i++ {
		other := Query{Vectors: NamedVectors{"image": engRandVec(rng, engImgDim)}, K: 10}
		searchAll(t, e, []Query{other, other}, 2)
	}
	for i, m := range out.Matches {
		if m.ID != snap[i].ID || m.Similarity != snap[i].Similarity {
			t.Fatalf("match %d mutated by later searches: %+v != %+v", i, m, snap[i])
		}
	}
}

// TestSearchEachBeforeBuild: every concurrent Search reports ErrNotBuilt,
// no panic.
func TestSearchEachBeforeBuild(t *testing.T) {
	e, err := NewEngine(engSchema(), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, errs := searchConcurrently(context.Background(), e, make([]Query, 3), 2)
	for i := range errs {
		if !errors.Is(errs[i], ErrNotBuilt) {
			t.Errorf("slot %d: want ErrNotBuilt, got %v (resp %v)", i, errs[i], out[i])
		}
	}
}

// TestEngineEpoch checks the mutation epoch advances on every
// result-visible change — the invariant result caches key on.
func TestEngineEpoch(t *testing.T) {
	e, r := newBuiltEngine(t, 60)
	last := e.Epoch()
	bump := func(what string, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		now := e.Epoch()
		if now <= last {
			t.Errorf("%s did not advance epoch (%d -> %d)", what, last, now)
		}
		last = now
	}
	var id int64
	bump("insert", func() error {
		var err error
		id, err = e.Insert(NamedVectors{"image": engRandVec(r, engImgDim), "text": engRandVec(r, engTxtDim)})
		return err
	})
	bump("delete", func() error { return e.Delete(id) })
	bump("setweights", func() error { return e.SetWeights(Weights{0.5, 0.5}) })
	bump("rebuild", func() error { return e.Rebuild() })
	// Failed mutations must not bump: deleting an unknown ID errors.
	if err := e.Delete(1 << 40); err == nil {
		t.Fatal("delete of unknown id succeeded")
	}
	if e.Epoch() != last {
		t.Errorf("failed delete bumped epoch %d -> %d", last, e.Epoch())
	}
}
