package must

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"
)

// sickShardQuery returns a query whose Filter misbehaves only for IDs
// owned by shard `sick` of an S-shard engine (filters run inside the
// owning shard's search, so the blast radius is exactly that shard).
func sickShardQuery(q NamedVectors, sick, shards int, misbehave func()) Query {
	return Query{
		Vectors: q,
		K:       5,
		Filter: func(id int64) bool {
			if int(id)%shards == sick {
				misbehave()
			}
			return true
		},
	}
}

// badQueryRepeats is how many times the bad-query tests send their bad
// query before checking that clean traffic is untouched.
const badQueryRepeats = 3

// cleanMatches runs a filterless query and returns its match IDs, failing
// the test unless every shard answered it.
func cleanMatches(t *testing.T, s *Engine, q NamedVectors) []int64 {
	t.Helper()
	resp, err := s.Search(context.Background(), Query{Vectors: q, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Partial {
		t.Fatalf("clean query answered partial: %+v", resp.ShardErrors)
	}
	ids := make([]int64, len(resp.Matches))
	for i, m := range resp.Matches {
		ids[i] = m.ID
	}
	return ids
}

func TestShardedPartialOnPanickingShard(t *testing.T) {
	const S = 4
	s := newSharded(t, shardedObjects(400, 1), S, true)
	qv := shardedQueries(1, 2)[0]
	before := cleanMatches(t, s, qv)
	q := sickShardQuery(qv, 1, S, func() { panic("shard 1 is sick") })

	for range badQueryRepeats - 1 {
		if _, err := s.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := s.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("one panicking shard must degrade, not fail: %v", err)
	}
	if !resp.Partial {
		t.Fatal("Partial not set")
	}
	if len(resp.ShardErrors) != 1 || resp.ShardErrors[0].Shard != 1 {
		t.Fatalf("ShardErrors = %+v, want exactly shard 1", resp.ShardErrors)
	}
	if !strings.Contains(resp.ShardErrors[0].Err, "panic") {
		t.Fatalf("ShardErrors[0].Err = %q, want a panic message", resp.ShardErrors[0].Err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches from the 3 healthy shards")
	}
	for _, m := range resp.Matches {
		if int(m.ID)%S == 1 {
			t.Fatalf("match %d belongs to the failed shard", m.ID)
		}
	}
	// The bad query cost only itself: the next clean query searches
	// every shard again.
	if after := cleanMatches(t, s, qv); !slices.Equal(after, before) {
		t.Fatalf("clean query after bad ones = %v, want %v", after, before)
	}
}

func TestShardedPartialOnHangingShard(t *testing.T) {
	const S = 4
	s := newSharded(t, shardedObjects(400, 1), S, true)
	hang := make(chan struct{})
	defer close(hang)
	qv := shardedQueries(1, 2)[0]
	before := cleanMatches(t, s, qv)
	q := sickShardQuery(qv, 2, S, func() { <-hang })

	for range badQueryRepeats {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		start := time.Now()
		resp, err := s.Search(ctx, q)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("one hanging shard must degrade, not fail: %v", err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("fan-out took %v, should return near the 300ms deadline", elapsed)
		}
		if !resp.Partial {
			t.Fatal("Partial not set")
		}
		if len(resp.ShardErrors) != 1 || resp.ShardErrors[0].Shard != 2 {
			t.Fatalf("ShardErrors = %+v, want exactly shard 2", resp.ShardErrors)
		}
		if len(resp.Matches) == 0 {
			t.Fatal("no matches from the healthy shards")
		}
	}
	// The straggler cost only the bad queries: the next clean query
	// searches every shard again.
	if after := cleanMatches(t, s, qv); !slices.Equal(after, before) {
		t.Fatalf("clean query after bad ones = %v, want %v", after, before)
	}
}

func TestShardedAllShardsFailingStillErrors(t *testing.T) {
	const S = 3
	s := newSharded(t, shardedObjects(120, 1), S, true)
	// A query invalid on every shard (unknown modality) must keep its
	// pre-degradation behavior: an error, never an empty partial result.
	_, err := s.Search(context.Background(), Query{Vectors: NamedVectors{"nope": make([]float32, 7)}})
	if err == nil {
		t.Fatal("invalid query returned no error")
	}
	// All shards panicking is a failure too.
	q := Query{
		Vectors: shardedQueries(1, 2)[0],
		Filter:  func(id int64) bool { panic("everything is sick") },
	}
	_, err = s.Search(context.Background(), q)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("all-shards panic: err = %v, want panic error", err)
	}
}

func TestSingleEnginePanicIsolatedPerQuery(t *testing.T) {
	e := newSingle(t, shardedObjects(200, 1), true)
	qs := shardedQueries(4, 2)
	queries := make([]Query, len(qs))
	for i, v := range qs {
		queries[i] = Query{Vectors: v, K: 3}
	}
	// Query 1 panics in its filter; the other three must still answer.
	queries[1].Filter = func(id int64) bool { panic("bad filter") }
	out, errs := e.SearchEach(context.Background(), queries, 1)
	for i := range queries {
		if i == 1 {
			if errs[1] == nil || !strings.Contains(errs[1].Error(), "panic") {
				t.Fatalf("errs[1] = %v, want panic error", errs[1])
			}
			continue
		}
		if errs[i] != nil || out[i] == nil || len(out[i].Matches) == 0 {
			t.Fatalf("query %d: err=%v out=%v (panic leaked across the batch)", i, errs[i], out[i])
		}
		if out[i].Partial {
			t.Fatalf("single engine set Partial on query %d", i)
		}
	}
}
