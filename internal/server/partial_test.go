package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"must"
)

// partialService marks every search response as degraded, standing in
// for a ShardedEngine with one sick shard.
type partialService struct {
	must.Service
}

func markPartial(out []*must.Response) {
	for _, r := range out {
		if r != nil {
			r.Partial = true
			r.ShardErrors = []must.ShardError{{Shard: 2, Err: "injected shard failure"}}
		}
	}
}

func (p *partialService) SearchEach(ctx context.Context, queries []must.Query, workers int) ([]*must.Response, []error) {
	out, errs := p.Service.SearchEach(ctx, queries, workers)
	markPartial(out)
	return out, errs
}

// panickyService panics inside the engine call, as a buggy kernel or
// poisoned query would.
type panickyService struct {
	must.Service
}

func (p *panickyService) SearchEach(ctx context.Context, queries []must.Query, workers int) ([]*must.Response, []error) {
	panic("engine bug")
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
	eng, queries, _ := testEngine(t, 200)
	s := New(&panickyService{eng}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked batch: status %d %s, want 500", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "panic") {
		t.Fatalf("500 body %q does not mention the panic", data)
	}

	// The dispatcher survived: the daemon still answers (another 500 for
	// this engine, but over a live connection) and exports the counter.
	resp2, _ := postJSON(t, ts.URL+"/v1/search", searchBody(queries[1]))
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second search after panic: status %d", resp2.StatusCode)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "must_batch_panics_total 2") {
		t.Fatalf("metrics missing must_batch_panics_total 2:\n%s", metrics)
	}
	_, stats := getBody(t, ts.URL+"/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.BatchPanics != 2 {
		t.Fatalf("stats batch_panics = %d, want 2", st.Server.BatchPanics)
	}
}
