package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"must"
)

const (
	testImgDim = 24
	testTxtDim = 12
)

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// testEngine builds a small engine; returned queries[i]'s exact top
// match is ids[i] (queries are the stored, normalized vectors).
func testEngine(t testing.TB, n int) (*must.Engine, []must.Query, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	eng, err := must.NewEngine(must.Schema{
		{Name: "image", Dim: testImgDim},
		{Name: "text", Dim: testTxtDim},
	}, must.EngineOptions{Build: must.BuildOptions{Gamma: 12, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
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
	queries := make([]must.Query, 0, 64)
	ids := make([]int64, 0, 64)
	for i := 0; i < 64; i++ {
		id := int64(rng.Intn(n))
		o, err := eng.Object(id)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, must.Query{Vectors: o, K: 3})
		ids = append(ids, id)
	}
	return eng, queries, ids
}

// heldService lets a test decide when each Search may return, which is
// how the slot tests make "every slot is busy" a state they control
// instead of a race they hope to win. Every call announces its query on
// entered and then blocks until release is closed.
type heldService struct {
	must.Service
	entered chan must.Query
	release chan struct{}
	once    sync.Once
	// live counts the calls now inside Search; peak is its high-water
	// mark.
	live, peak atomic.Int64
}

func newHeldService(inner must.Service) *heldService {
	// entered is buffered past any test's call count so calls made after
	// the release never block on an observer that stopped looking.
	return &heldService{Service: inner, entered: make(chan must.Query, 1024), release: make(chan struct{})}
}

func (h *heldService) Search(ctx context.Context, q must.Query) (*must.Response, error) {
	live := h.live.Add(1)
	defer h.live.Add(-1)
	for peak := h.peak.Load(); live > peak && !h.peak.CompareAndSwap(peak, live); peak = h.peak.Load() {
	}
	h.entered <- q
	<-h.release
	return h.Service.Search(ctx, q)
}

// releaseAll lets every held and future call through; safe to repeat.
func (h *heldService) releaseAll() { h.once.Do(func() { close(h.release) }) }

// heldServer serves a held engine with the given number of engine slots
// and the result cache off, so every search reaches the engine.
func heldServer(t *testing.T, slots int, cfg Config) (*Server, *heldService, *httptest.Server, []must.Query, []int64) {
	t.Helper()
	eng, queries, ids := testEngine(t, 500)
	svc := newHeldService(eng)
	cfg.CacheSize = -1
	s := New(svc, cfg)
	s.slots = make(chan struct{}, slots)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	// Registered last, so it runs first: a failed test never leaves
	// ts.Close waiting on a held handler.
	t.Cleanup(svc.releaseAll)
	return s, svc, ts, queries, ids
}

type reply struct {
	code int
	body []byte
}

// goSearch posts one search from its own goroutine; its reply arrives on
// the returned channel (code -1 if the request itself failed).
func goSearch(url string, req *SearchRequest) <-chan reply {
	ch := make(chan reply, 1)
	raw, _ := json.Marshal(req)
	go func() {
		resp, err := http.Post(url+"/v1/search", "application/json", bytes.NewReader(raw))
		if err != nil {
			ch <- reply{code: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		ch <- reply{code: resp.StatusCode, body: body}
	}()
	return ch
}

// TestSlotsBoundEngineConcurrency: with more admitted searches than
// engine slots, never more than the slot count are inside the engine at
// once; the rest wait, and every request still gets its own answer.
func TestSlotsBoundEngineConcurrency(t *testing.T) {
	const slots, clients = 2, 6
	s, svc, ts, queries, ids := heldServer(t, slots, Config{})
	replies := make([]<-chan reply, clients)
	for c := range replies {
		replies[c] = goSearch(ts.URL, searchBody(queries[c]))
	}
	for range slots {
		<-svc.entered
	}
	// Every client admitted means the other four hold no slot and wait.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.inFlight.Load() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d searches admitted", s.metrics.inFlight.Load(), clients)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a broken bound to let one through
	if live := svc.live.Load(); live != slots {
		t.Fatalf("%d searches inside the engine with %d slots held", live, slots)
	}
	svc.releaseAll()
	for c, ch := range replies {
		r := <-ch
		if r.code != http.StatusOK {
			t.Fatalf("client %d: %d %s", c, r.code, r.body)
		}
		var sr SearchResponse
		if err := json.Unmarshal(r.body, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Matches) == 0 || sr.Matches[0].ID != ids[c] {
			t.Errorf("client %d: top match %+v, want %d", c, sr.Matches, ids[c])
		}
	}
	if peak := svc.peak.Load(); peak > slots {
		t.Errorf("%d searches inside the engine at once, more than the %d slots", peak, slots)
	}
}

// TestSlotWaitTimesOut: a request still waiting for a slot when its
// timeout_ms passes gets 504 promptly and never reaches the engine; the
// request holding the slot is unharmed.
func TestSlotWaitTimesOut(t *testing.T) {
	_, svc, ts, queries, ids := heldServer(t, 1, Config{})
	holder := goSearch(ts.URL, searchBody(queries[0]))
	<-svc.entered

	req := searchBody(queries[1])
	req.TimeoutMS = 50
	start := time.Now()
	r := <-goSearch(ts.URL, req)
	if r.code != http.StatusGatewayTimeout {
		t.Fatalf("search waiting on a held slot: %d %s, want 504", r.code, r.body)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("504 took %v for a 50 ms timeout", took)
	}
	select {
	case q := <-svc.entered:
		t.Fatalf("timed-out request reached the engine: %+v", q)
	default:
	}

	svc.releaseAll()
	hr := <-holder
	var sr SearchResponse
	if err := json.Unmarshal(hr.body, &sr); hr.code != http.StatusOK || err != nil || sr.Matches[0].ID != ids[0] {
		t.Fatalf("slot holder: %d %s", hr.code, hr.body)
	}
}

// TestSearchAfterCloseIs503: Close drains the server, so a later search
// is refused with 503 instead of reaching the engine.
func TestSearchAfterCloseIs503(t *testing.T) {
	s, svc, ts, queries, _ := heldServer(t, 1, Config{})
	s.Close()
	resp, data := postJSON(t, ts.URL+"/v1/search", searchBody(queries[0]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("search after Close: %d %s, want 503", resp.StatusCode, data)
	}
	if n := len(svc.entered); n != 0 {
		t.Fatalf("%d searches reached the engine after Close", n)
	}
	s.Close() // a second Close is a no-op
}
