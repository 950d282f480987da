package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"must"
)

// partialService marks every search response as degraded, standing in
// for a ShardedEngine with one sick shard.
type partialService struct {
	must.Service
}

func (p *partialService) Search(ctx context.Context, q must.Query) (*must.Response, error) {
	r, err := p.Service.Search(ctx, q)
	if r != nil {
		r.Partial = true
		r.ShardErrors = []must.ShardError{{Shard: 2, Err: "injected shard failure"}}
	}
	return r, err
}

// panickyService panics inside its first engine call, as a buggy kernel
// or poisoned query would, and answers normally after that.
type panickyService struct {
	must.Service
	panicked atomic.Bool
}

func (p *panickyService) Search(ctx context.Context, q must.Query) (*must.Response, error) {
	if !p.panicked.Swap(true) {
		panic("engine bug")
	}
	return p.Service.Search(ctx, q)
}

func TestServerPartialResponse(t *testing.T) {
	eng, queries, _ := testEngine(t, 200)
	s := New(&partialService{eng}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded search must still be 200, got %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Partial {
		t.Fatalf("partial flag not plumbed to JSON: %s", data)
	}
	if len(sr.ShardErrors) != 1 || sr.ShardErrors[0].Shard != 2 || sr.ShardErrors[0].Err != "injected shard failure" {
		t.Fatalf("shard_errors = %+v", sr.ShardErrors)
	}
	if len(sr.Matches) == 0 {
		t.Fatal("no matches in partial response")
	}

	// Partial responses must not be cached: the same request again
	// is re-answered by the engine, not the cache.
	resp2, data2 := postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	var sr2 SearchResponse
	if err := json.Unmarshal(data2, &sr2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || sr2.Cached {
		t.Fatalf("partial response was cached (status %d, cached=%v)", resp2.StatusCode, sr2.Cached)
	}

	// The counter and stats surface both report the two degraded
	// answers.
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "must_partial_results_total 2") {
		t.Fatalf("metrics missing must_partial_results_total 2:\n%s", metrics)
	}
	_, stats := getBody(t, ts.URL+"/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.PartialResults != 2 {
		t.Fatalf("stats partial_results = %d, want 2", st.Server.PartialResults)
	}
}

func TestServerBatchPanicIs500NotCrash(t *testing.T) {
	eng, queries, ids := testEngine(t, 200)
	s := New(&panickyService{Service: eng}, Config{})
	// One slot: a slot the panic failed to return would time the next
	// search out.
	s.slots = make(chan struct{}, 1)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked search: status %d %s, want 500", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "panic") {
		t.Fatalf("500 body %q does not mention the panic", data)
	}

	// The daemon survived with its slot back: the next search succeeds,
	// and the counter reports the one panic.
	resp2, data2 := postJSON(t, ts.URL+"/v1/search", searchBody(queries[1]))
	var sr SearchResponse
	if err := json.Unmarshal(data2, &sr); resp2.StatusCode != http.StatusOK || err != nil || sr.Matches[0].ID != ids[1] {
		t.Fatalf("search after a panic: %d %s", resp2.StatusCode, data2)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "must_batch_panics_total 1") {
		t.Fatalf("metrics missing must_batch_panics_total 1:\n%s", metrics)
	}
	_, stats := getBody(t, ts.URL+"/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.BatchPanics != 1 {
		t.Fatalf("stats batch_panics = %d, want 1", st.Server.BatchPanics)
	}
}
