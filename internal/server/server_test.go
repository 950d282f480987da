package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"must"
)

// testServer stands up a Server over a built engine behind httptest.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server, []must.Query, []int64) {
	t.Helper()
	eng, queries, ids := testEngine(t, 500)
	s := New(eng, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, queries, ids
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func searchBody(q must.Query) *SearchRequest {
	return &SearchRequest{Vectors: q.Vectors, K: q.K}
}

func TestServerSearchEndToEnd(t *testing.T) {
	_, ts, queries, ids := testServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Matches) != 3 || sr.Matches[0].ID != ids[0] {
		t.Fatalf("wrong matches %+v, want top %d", sr.Matches, ids[0])
	}
	if sr.Cached {
		t.Fatal("first search reported cached")
	}
	if sr.QueryTimeMS <= 0 {
		t.Fatal("query_time_ms missing")
	}
	if len(sr.Matches[0].ByModality) != 2 {
		t.Fatalf("per-modality breakdown missing: %+v", sr.Matches[0])
	}
	if sr.Stats.Hops == 0 {
		t.Fatal("routing stats missing")
	}
	if sr.QueueMS <= 0 || sr.QueueMS > sr.QueryTimeMS {
		t.Fatalf("lone search on an idle server: queue_ms %v of query_time_ms %v", sr.QueueMS, sr.QueryTimeMS)
	}
	if sr.DecodeMS <= 0 || sr.DecodeMS+sr.QueueMS > sr.QueryTimeMS {
		t.Fatalf("decode_ms %v (+ queue_ms %v) of query_time_ms %v", sr.DecodeMS, sr.QueueMS, sr.QueryTimeMS)
	}

	// Second identical request: served from cache.
	resp, data = postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached search: %d %s", resp.StatusCode, data)
	}
	var sr2 SearchResponse
	if err := json.Unmarshal(data, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached || sr2.QueueMS != 0 {
		t.Fatalf("identical request missed the cache or reports a slot wait: %s", data)
	}
	if sr2.Matches[0].ID != sr.Matches[0].ID {
		t.Fatal("cached response differs")
	}
	// A hit skips the decoder and the engine slots: decode_ms is the
	// body read alone.
	if sr2.DecodeMS <= 0 || sr2.DecodeMS > sr2.QueryTimeMS {
		t.Fatalf("cache hit: decode_ms %v of query_time_ms %v", sr2.DecodeMS, sr2.QueryTimeMS)
	}
}

// TestServerCacheKeyFullWidth sends l=160 and then l=160+2^32, which the
// engine clamps to the corpus size, an exhaustive search: the second must
// be searched afresh and return ExactSearch's IDs, not the first's entry.
func TestServerCacheKeyFullWidth(t *testing.T) {
	s, ts, queries, _ := testServer(t, Config{})
	q := queries[5]
	exact, err := s.eng.ExactSearch(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, len(exact.Matches))
	for i, m := range exact.Matches {
		want[i] = m.ID
	}
	for i, l := range []int{160, 160 + 1<<32, 160 + 1<<32} {
		_, data := postJSON(t, ts.URL+"/v1/search", &SearchRequest{Vectors: q.Vectors, K: q.K, L: l})
		var sr SearchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("l=%d: %v: %s", l, err, data)
		}
		if sr.Cached != (i == 2) {
			t.Errorf("search %d, l=%d: cached=%v", i, l, sr.Cached)
		}
		if got := matchIDs(t, string(data)); l > 160 && !reflect.DeepEqual(got, want) {
			t.Errorf("search %d, l=%d: ids %v, ExactSearch %v", i, l, got, want)
		}
	}
}

// TestServerCacheBodyKey: the result cache is keyed on a search body's
// exact bytes. Each body is sent twice; every 200 reply must carry the
// matches of a fresh no_cache search of the same request at the same
// epoch, and only a stored miss adds an entry.
func TestServerCacheBodyKey(t *testing.T) {
	eng, queries, _ := testEngine(t, 500)
	s := New(eng, Config{})
	defer s.Close()
	h := s.Handler()
	vecs, err := json.Marshal(queries[2].Vectors)
	if err != nil {
		t.Fatal(err)
	}
	search := func(body string) (int, SearchResponse) {
		t.Helper()
		code, reply := postRaw(t, h, "/v1/search", body)
		var sr SearchResponse
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(reply), &sr); err != nil {
				t.Fatalf("%v: %s", err, reply)
			}
		}
		return code, sr
	}
	fresh := func(body string) []SearchMatch {
		t.Helper()
		var req SearchRequest
		if err := decodeStd([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		req.NoCache = true
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		code, sr := search(string(raw))
		if code != http.StatusOK || sr.Cached {
			t.Fatalf("fresh search of %s: %d, cached %v", raw, code, sr.Cached)
		}
		return sr.Matches
	}
	base := fmt.Sprintf(`{"vectors":%s,"k":3}`, vecs)
	if code, _ := search(base); code != http.StatusOK {
		t.Fatalf("base search: %d", code)
	}

	cases := []struct {
		name      string
		body      string
		code      int
		hit, next bool // the first send, the second send is served from the cache
	}{
		{"identical", base, http.StatusOK, true, true},
		{"re-spaced", pythonStyle(base), http.StatusOK, false, true},
		{"reordered keys", fmt.Sprintf(`{"k":3,"vectors":%s}`, vecs), http.StatusOK, false, true},
		{"timeout_ms", fmt.Sprintf(`{"vectors":%s,"k":3,"timeout_ms":1500}`, vecs), http.StatusOK, false, true},
		{"no_cache", fmt.Sprintf(`{"vectors":%s,"k":3,"no_cache":true}`, vecs), http.StatusOK, false, false},
		{"refused by the decoder", fmt.Sprintf(`{"vectors":%s,"k":3,"kk":1}`, vecs), http.StatusBadRequest, false, false},
		{"refused by validation", fmt.Sprintf(`{"vectors":%s,"k":-3}`, vecs), http.StatusBadRequest, false, false},
		{"padded past the key bound", base + strings.Repeat(" ", maxCacheKey(eng.Schema())), http.StatusOK, false, false},
	}
	for _, tc := range cases {
		for send, hit := range []bool{tc.hit, tc.next} {
			n := s.cache.Len()
			code, sr := search(tc.body)
			if code != tc.code {
				t.Errorf("%s, send %d: status %d, want %d", tc.name, send, code, tc.code)
				continue
			}
			wantAdded := 0
			if send == 0 && !tc.hit && tc.next {
				wantAdded = 1
			}
			if added := s.cache.Len() - n; added != wantAdded {
				t.Errorf("%s, send %d: %d entries added, want %d", tc.name, send, added, wantAdded)
			}
			if code != http.StatusOK {
				continue
			}
			if sr.Cached != hit {
				t.Errorf("%s, send %d: cached %v, want %v", tc.name, send, sr.Cached, hit)
			}
			if want := fresh(tc.body); !reflect.DeepEqual(sr.Matches, want) {
				t.Errorf("%s, send %d: matches %+v, a fresh search %+v", tc.name, send, sr.Matches, want)
			}
		}
	}

	// An epoch bump turns the stored base body into a miss.
	obj, err := eng.Object(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert(obj); err != nil {
		t.Fatal(err)
	}
	if _, sr := search(base); sr.Cached || !reflect.DeepEqual(sr.Matches, fresh(base)) {
		t.Errorf("after an insert: cached %v, matches %+v", sr.Cached, sr.Matches)
	}
}

// TestServerCacheNoCacheNotStored: "no_cache": true skips the store as
// well as the lookup, so an opted-out body evicts no live entry and is
// searched afresh every time it is sent.
func TestServerCacheNoCacheNotStored(t *testing.T) {
	_, ts, queries, _ := testServer(t, Config{})
	entries := func() int {
		t.Helper()
		_, data := getBody(t, ts.URL+"/v1/stats")
		var st StatsResponse
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		return st.Server.CacheEntries
	}
	req := searchBody(queries[4])
	req.NoCache = true
	for send := 0; send < 2; send++ {
		before := entries()
		resp, data := postJSON(t, ts.URL+"/v1/search", req)
		var sr SearchResponse
		if err := json.Unmarshal(data, &sr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("send %d: %d %s", send, resp.StatusCode, data)
		}
		if sr.Cached {
			t.Errorf("send %d: a no_cache search was served from the cache", send)
		}
		if after := entries(); after != before {
			t.Errorf("send %d: cache_entries %d -> %d", send, before, after)
		}
	}
}

func TestServerInsertDeleteInvalidateCache(t *testing.T) {
	_, ts, queries, _ := testServer(t, Config{})
	// Prime the cache.
	postJSON(t, ts.URL+"/v1/search", searchBody(queries[1]))
	resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[1]))
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Fatal("expected cache hit before mutation")
	}

	// Insert a new object: epoch bumps, cached entry must not be served.
	rng := rand.New(rand.NewSource(9))
	resp, data = postJSON(t, ts.URL+"/v1/insert", &InsertRequest{
		Vectors: map[string][]float32{
			"image": randVec(rng, testImgDim),
			"text":  randVec(rng, testTxtDim),
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, data)
	}
	var ir InsertResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.IDs) != 1 {
		t.Fatalf("insert ids %v", ir.IDs)
	}

	_, data = postJSON(t, ts.URL+"/v1/search", searchBody(queries[1]))
	var sr3 SearchResponse
	if err := json.Unmarshal(data, &sr3); err != nil {
		t.Fatal(err)
	}
	if sr3.Cached {
		t.Fatal("stale cache entry served after insert")
	}

	// Delete the inserted object: another epoch bump.
	resp, data = postJSON(t, ts.URL+"/v1/delete", &DeleteRequest{IDs: ir.IDs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, data)
	}
	_, data = postJSON(t, ts.URL+"/v1/search", searchBody(queries[1]))
	var sr4 SearchResponse
	if err := json.Unmarshal(data, &sr4); err != nil {
		t.Fatal(err)
	}
	if sr4.Cached {
		t.Fatal("stale cache entry served after delete")
	}
	// The deleted object never appears in results.
	for _, m := range sr4.Matches {
		if m.ID == ir.IDs[0] {
			t.Fatal("deleted object returned")
		}
	}

	// Unknown ID: 404 with error body.
	resp, data = postJSON(t, ts.URL+"/v1/delete", &DeleteRequest{IDs: []int64{1 << 40}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown delete: %d %s", resp.StatusCode, data)
	}
}

func TestServerRebuildFlow(t *testing.T) {
	// Start from an empty, unbuilt engine: search 409s, inserts
	// accumulate, rebuild builds, search works, rebuild again compacts.
	eng, err := must.NewEngine(must.Schema{
		{Name: "image", Dim: testImgDim},
		{Name: "text", Dim: testTxtDim},
	}, must.EngineOptions{Build: must.BuildOptions{Gamma: 12, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	rng := rand.New(rand.NewSource(3))
	probe := map[string][]float32{"image": randVec(rng, testImgDim)}
	resp, data := postJSON(t, ts.URL+"/v1/search", &SearchRequest{Vectors: probe})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("search before build: %d %s", resp.StatusCode, data)
	}

	objects := make([]map[string][]float32, 80)
	for i := range objects {
		objects[i] = map[string][]float32{
			"image": randVec(rng, testImgDim),
			"text":  randVec(rng, testTxtDim),
		}
	}
	resp, data = postJSON(t, ts.URL+"/v1/insert", &InsertRequest{Objects: objects})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk insert: %d %s", resp.StatusCode, data)
	}
	var ir InsertResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.IDs) != len(objects) {
		t.Fatalf("inserted %d, want %d", len(ir.IDs), len(objects))
	}

	resp, data = postJSON(t, ts.URL+"/v1/rebuild", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild: %d %s", resp.StatusCode, data)
	}
	var rr RebuildResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Built || rr.Objects != len(objects) {
		t.Fatalf("rebuild response %+v", rr)
	}

	resp, data = postJSON(t, ts.URL+"/v1/search", &SearchRequest{Vectors: objects[7], K: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after build: %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Matches[0].ID != ir.IDs[7] {
		t.Fatalf("got %+v, want %d", sr.Matches[0], ir.IDs[7])
	}

	// Second rebuild is a compaction, not a first build.
	resp, data = postJSON(t, ts.URL+"/v1/rebuild", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second rebuild: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Built {
		t.Fatal("second rebuild claimed to be the first build")
	}
}

func TestServerStatsAndMetrics(t *testing.T) {
	_, ts, queries, _ := testServer(t, Config{})
	postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	postJSON(t, ts.URL+"/v1/search", searchBody(queries[0])) // cache hit

	resp, data := getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, data)
	}
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Built || st.Objects != 500 || len(st.Schema) != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Engine.Edges == 0 || st.Engine.CorpusBytes == 0 || st.Engine.GraphBytesPerEdge == 0 {
		t.Fatalf("engine stats not marshaled: %+v", st.Engine)
	}
	if st.Server.CacheHits == 0 {
		t.Fatalf("server stats missing cache hit: %+v", st.Server)
	}
	// The raw JSON uses the contract field names.
	for _, want := range []string{`"corpus_bytes"`, `"graph_bytes_per_edge"`, `"avg_degree"`, `"cache_hit_ratio"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("stats JSON missing %s: %s", want, data)
		}
	}

	resp, data = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(data)
	for _, want := range []string{
		`mustd_requests_total{endpoint="search",code="200"}`,
		`mustd_request_seconds_bucket{endpoint="search"`,
		"mustd_cache_hits_total 1",
		"mustd_engine_objects 500",
		"must_batch_queue_seconds_count 1\n", // the cache hit never queued
		"must_decode_seconds_count 1\n",      // nor was it decoded
		`must_decode_total{path="fast"} 1`,
		`must_decode_total{path="std"} 0`,
		"mustd_in_flight_requests",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// The write-ahead log reports only when there is one.
	if st.WAL != nil || strings.Contains(text, "must_wal_") {
		t.Errorf("a non-durable engine reports a wal: %+v", st.WAL)
	}
	eng, _, _ := testEngine(t, 50)
	ds, _, err := must.OpenDurable(eng, t.TempDir(), must.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds2 := New(ds, Config{})
	defer ds2.Close()
	dts := httptest.NewServer(ds2.Handler())
	defer dts.Close()
	obj, err := eng.Object(0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := postJSON(t, dts.URL+"/v1/insert", &InsertRequest{Vectors: obj}); resp.StatusCode != http.StatusOK {
		t.Fatalf("durable insert: %d %s", resp.StatusCode, data)
	}
	_, data = getBody(t, dts.URL+"/v1/stats")
	var dst StatsResponse
	if err := json.Unmarshal(data, &dst); err != nil {
		t.Fatal(err)
	}
	if w := dst.WAL; w == nil || w.Records != 1 || w.Fsyncs != 1 || w.RecordsPerFsync != 1 || w.Poisoned {
		t.Errorf("wal block after one acked insert = %+v in %s", w, data)
	}
	_, data = getBody(t, dts.URL+"/metrics")
	for _, want := range []string{
		"must_wal_records_total 1\n",
		"must_wal_fsyncs_total 1\n",
		`must_wal_fsync_seconds_bucket{le="+Inf"} 1`,
		"must_wal_fsync_seconds_count 1\n",
		"must_wal_poisoned 0\n",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("durable metrics output missing %q", want)
		}
	}
}

func TestServerValidationAndMethods(t *testing.T) {
	_, ts, queries, _ := testServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown modality", &SearchRequest{Vectors: map[string][]float32{"sound": {1}}}, http.StatusBadRequest},
		{"wrong dim", &SearchRequest{Vectors: map[string][]float32{"image": {1, 2}}}, http.StatusBadRequest},
		{"empty vectors", &SearchRequest{}, http.StatusBadRequest},
		{"negative k", &SearchRequest{Vectors: queries[0].Vectors, K: -1}, http.StatusBadRequest},
		{"unknown weight", &SearchRequest{Vectors: queries[0].Vectors, Weights: map[string]float32{"x": 1}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/search", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got %d %s, want %d", tc.name, resp.StatusCode, data, tc.want)
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not structured", tc.name, data)
		}
	}

	// Unknown JSON fields are rejected (typo safety).
	resp, err := http.Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(`{"vectorz": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET search: %d, want 405", resp.StatusCode)
	}
}

func TestServerAdmissionControl(t *testing.T) {
	// MaxInFlight 2 over an engine the test holds: once two searches are
	// inside the engine, both admission slots are taken, so every further
	// request is shed with 429 + Retry-After while the admitted two still
	// succeed. Two engine slots let both admitted requests reach it.
	_, svc, ts, queries, _ := heldServer(t, 2, Config{MaxInFlight: 2})
	admitted := make([]<-chan reply, 2)
	for c := range admitted {
		admitted[c] = goSearch(ts.URL, searchBody(queries[c]))
		<-svc.entered // in the engine, holding an admission slot
	}
	for c := 2; c < 6; c++ {
		resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[c]))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d beyond MaxInFlight=2: %d %s, want 429", c, resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	}
	svc.releaseAll()
	for c, ch := range admitted {
		if r := <-ch; r.code != http.StatusOK {
			t.Errorf("admitted request %d: status %d %s", c, r.code, r.body)
		}
	}
}

func TestServerTimeout(t *testing.T) {
	_, ts, queries, _ := testServer(t, Config{
		// A 1ns effective timeout: the context is dead before the
		// request even waits for an engine slot.
		DefaultTimeout: time.Nanosecond,
		CacheSize:      -1,
	})
	resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timeout search: %d %s, want 504", resp.StatusCode, data)
	}
}

// TestServerHugeTimeoutClamped: a timeout_ms too large for a
// time.Duration is clamped to MaxTimeout, not wrapped negative into a
// deadline that has already passed.
func TestServerHugeTimeoutClamped(t *testing.T) {
	_, ts, queries, _ := testServer(t, Config{CacheSize: -1})
	for _, ms := range []int{10000000000000, math.MaxInt64} {
		req := searchBody(queries[0])
		req.TimeoutMS = ms
		resp, data := postJSON(t, ts.URL+"/v1/search", req)
		var sr SearchResponse
		if err := json.Unmarshal(data, &sr); resp.StatusCode != http.StatusOK || err != nil || len(sr.Matches) != queries[0].K {
			t.Fatalf("timeout_ms %d: %d %s, want 200 with %d matches", ms, resp.StatusCode, data, queries[0].K)
		}
	}
}

func TestServerDraining(t *testing.T) {
	s, ts, queries, _ := testServer(t, Config{})
	// Healthy first.
	resp, _ := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}
	s.StartDraining()
	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}
	resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("search during drain: %d %s, want 503", resp.StatusCode, data)
	}
}

func TestServerConcurrentMixedWorkload(t *testing.T) {
	// The serving invariant under -race: concurrent searches, inserts,
	// and deletes through the full HTTP stack never cross results.
	_, ts, queries, ids := testServer(t, Config{})
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(77))
	var insertMu sync.Mutex
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				j := (g*10 + i) % len(queries)
				resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[j]))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("g%d: search %d %s", g, resp.StatusCode, data)
					return
				}
				var sr SearchResponse
				if err := json.Unmarshal(data, &sr); err != nil {
					t.Error(err)
					return
				}
				if len(sr.Matches) == 0 || sr.Matches[0].ID != ids[j] {
					t.Errorf("g%d query %d: wrong top %+v want %d", g, j, sr.Matches, ids[j])
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			insertMu.Lock()
			img, txt := randVec(rng, testImgDim), randVec(rng, testTxtDim)
			insertMu.Unlock()
			resp, data := postJSON(t, ts.URL+"/v1/insert", &InsertRequest{
				Vectors: map[string][]float32{"image": img, "text": txt},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("writer: insert %d %s", resp.StatusCode, data)
				return
			}
			var ir InsertResponse
			if err := json.Unmarshal(data, &ir); err != nil {
				t.Error(err)
				return
			}
			if resp, data := postJSON(t, ts.URL+"/v1/delete", &DeleteRequest{IDs: ir.IDs}); resp.StatusCode != http.StatusOK {
				t.Errorf("writer: delete %d %s", resp.StatusCode, data)
				return
			}
		}
	}()
	wg.Wait()
}

func TestMetricsHistogramRendering(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest("search", 200, 0.0007)
	m.ObserveRequest("search", 200, 0.3)
	m.ObserveRequest("search", 400, 0.001)
	m.ObserveQueueWait(300 * time.Microsecond)
	m.ObserveQueueWait(2 * time.Second)
	eng, _, _ := testEngine(t, 60)
	var sb strings.Builder
	m.WritePrometheus(&sb, eng, newResultCache(4, 1<<10), nil)
	out := sb.String()
	for _, want := range []string{
		`mustd_requests_total{endpoint="search",code="200"} 2`,
		`mustd_requests_total{endpoint="search",code="400"} 1`,
		`mustd_request_seconds_bucket{endpoint="search",le="0.001"} 2`,
		`mustd_request_seconds_bucket{endpoint="search",le="+Inf"} 3`,
		`mustd_request_seconds_count{endpoint="search"} 3`,
		`must_batch_queue_seconds_bucket{le="0.0005"} 1`,
		`must_batch_queue_seconds_bucket{le="2.5"} 2`,
		"must_batch_queue_seconds_count 2",
		"mustd_engine_objects 60",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Scrapes are deterministic: same registry renders identically.
	var sb2 strings.Builder
	m.WritePrometheus(&sb2, eng, newResultCache(4, 1<<10), nil)
	if sb2.String() != out {
		t.Error("two scrapes of an idle registry differ")
	}
}

// The serving tier runs unchanged over a ShardedEngine: the result cache
// keys on the summed per-shard epoch, so a mutation that touches only
// one shard still invalidates stale entries, and /v1/stats reports the
// per-shard breakdown.
func TestServerShardedEngineCacheInvalidation(t *testing.T) {
	const shards = 4
	eng, err := must.NewShardedEngine(must.Schema{
		{Name: "image", Dim: testImgDim},
		{Name: "text", Dim: testTxtDim},
	}, shards, must.EngineOptions{Build: must.BuildOptions{Gamma: 12, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		if _, err := eng.Insert(must.NamedVectors{
			"image": randVec(rng, testImgDim),
			"text":  randVec(rng, testTxtDim),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	probe, err := eng.Object(7)
	if err != nil {
		t.Fatal(err)
	}
	q := &SearchRequest{Vectors: probe, K: 3}

	resp, data := postJSON(t, ts.URL+"/v1/search", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached || len(sr.Matches) != 3 || sr.Matches[0].ID != 7 {
		t.Fatalf("first search %+v", sr)
	}
	var sr2 SearchResponse
	_, data = postJSON(t, ts.URL+"/v1/search", q)
	if err := json.Unmarshal(data, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached {
		t.Fatal("identical request missed the cache")
	}

	// A single-shard mutation (one delete) must invalidate the cache.
	epochBefore := eng.Epoch()
	resp, data = postJSON(t, ts.URL+"/v1/delete", &DeleteRequest{IDs: []int64{190}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, data)
	}
	if eng.Epoch() <= epochBefore {
		t.Fatal("summed epoch did not advance on delete")
	}
	var sr3 SearchResponse
	_, data = postJSON(t, ts.URL+"/v1/search", q)
	if err := json.Unmarshal(data, &sr3); err != nil {
		t.Fatal(err)
	}
	if sr3.Cached {
		t.Fatal("stale cache entry served after single-shard delete")
	}

	// /v1/rebuild drives ShardedEngine.Rebuild (parallel compaction).
	resp, data = postJSON(t, ts.URL+"/v1/rebuild", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild: %d %s", resp.StatusCode, data)
	}
	var rr RebuildResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	// Built reports false for a compacting rebuild of an already-built
	// engine; the live count excludes the deleted object.
	if rr.Built || rr.Objects != 199 {
		t.Fatalf("rebuild response %+v", rr)
	}

	// /v1/stats exposes the per-shard breakdown.
	resp, data = getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != shards {
		t.Fatalf("stats reported %d shards, want %d", len(st.Shards), shards)
	}
	for j, si := range st.Shards {
		if si.State != "built" || si.Objects == 0 {
			t.Fatalf("shard %d stats %+v", j, si)
		}
	}
	if st.Engine.Objects != 199 {
		t.Fatalf("aggregate objects %d, want 199", st.Engine.Objects)
	}
}
