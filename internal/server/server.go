package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"must"
)

// Config tunes the serving tier; the zero value gets production-shaped
// defaults (4096-entry cache, 256 in-flight searches, 2s default / 30s
// max per-request timeout). Admitted searches run on GOMAXPROCS engine
// slots, each one Engine.Search on the request's own goroutine.
type Config struct {
	// CacheSize is the result-cache capacity in responses (default
	// 4096; negative disables the cache).
	CacheSize int
	// MaxInFlight bounds admitted read requests (search); excess get
	// 429 + Retry-After (default 256). Admitted searches beyond the
	// engine slots wait for one, no longer than their timeout.
	MaxInFlight int
	// MaxInFlightWrites bounds admitted write requests (insert, delete,
	// rebuild) on a separate budget, so a write flood is shed without
	// costing search admission — and vice versa (default 64).
	MaxInFlightWrites int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 2s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeout_ms (default 30s).
	MaxTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.MaxInFlightWrites <= 0 {
		c.MaxInFlightWrites = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	return c
}

// Server is the HTTP serving tier over a must.Service (an Engine of any
// shard count, possibly behind a DurableService). Create with New, mount
// Handler on an http.Server, and Close after draining.
type Server struct {
	eng     must.Service
	cfg     Config
	metrics *Metrics
	cache   *resultCache
	mux     *http.ServeMux
	sem     chan struct{} // read admission (search)
	wsem    chan struct{} // write admission (insert, delete, rebuild)
	// slots bounds the searches inside the engine at once (GOMAXPROCS);
	// an admitted search takes one for its Engine.Search call.
	slots chan struct{}

	// maint, when attached, surfaces background-maintenance counters in
	// /v1/stats and /metrics; the loop itself runs in the daemon.
	maint *must.Maintainer

	draining atomic.Bool

	// rebuildMu serializes /v1/rebuild so two concurrent requests don't
	// race Build vs Rebuild (the engine would reject one with a
	// confusing error).
	rebuildMu sync.Mutex

	byName map[string]int
	schema must.Schema
	// modalityKeys are the schema's names as by_modality keys in replies.
	modalityKeys []jsonKey
}

// walReporter is the optional write-ahead-log statistics surface of a
// service (must.DurableService has it).
type walReporter interface {
	WALStats() must.WALStats
}

// New assembles a Server over an engine (which may be empty and
// unbuilt: inserts accumulate and /v1/rebuild triggers the first
// build).
func New(eng must.Service, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:     eng,
		cfg:     cfg,
		metrics: NewMetrics(),
		cache:   newResultCache(cfg.CacheSize),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		wsem:    make(chan struct{}, cfg.MaxInFlightWrites),
		slots:   make(chan struct{}, runtime.GOMAXPROCS(0)),
		schema:  eng.Schema(),
		byName:  make(map[string]int),
	}
	for i, m := range s.schema {
		s.byName[m.Name] = i
	}
	s.modalityKeys = quoteKeys(s.schema.Names())
	mux := http.NewServeMux()
	mux.Handle("/v1/search", s.endpoint("search", http.MethodPost, admitRead, s.handleSearch))
	mux.Handle("/v1/insert", s.endpoint("insert", http.MethodPost, admitWrite, s.handleInsert))
	mux.Handle("/v1/delete", s.endpoint("delete", http.MethodPost, admitWrite, s.handleDelete))
	mux.Handle("/v1/rebuild", s.endpoint("rebuild", http.MethodPost, admitWrite, s.handleRebuild))
	mux.Handle("/v1/stats", s.endpoint("stats", http.MethodGet, admitNone, s.handleStats))
	mux.Handle("/healthz", http.HandlerFunc(s.handleHealthz))
	mux.Handle("/metrics", s.endpoint("metrics", http.MethodGet, admitNone, s.handleMetrics))
	s.mux = mux
	return s
}

// Handler returns the route multiplexer to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (the daemon's snapshot loop and tests
// read counters through it).
func (s *Server) Metrics() *Metrics { return s.metrics }

// AttachMaintainer surfaces a background maintainer's counters in
// /v1/stats and /metrics. Call before serving; the maintainer's
// lifecycle (Close) stays with the caller.
func (s *Server) AttachMaintainer(m *must.Maintainer) { s.maint = m }

// StartDraining flips the server into drain mode: /healthz turns 503 so
// load balancers stop routing here, and every new API request is
// refused; requests already admitted run to completion. Call before
// http.Server.Shutdown.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Close is StartDraining: every later API request is refused with 503.
// Call after http.Server.Shutdown has drained the handlers.
func (s *Server) Close() { s.StartDraining() }

// validateSearch checks a request against the schema so malformed
// requests fail 400 deterministically before touching the engine.
func (s *Server) validateSearch(req *SearchRequest) error {
	if len(req.Vectors) == 0 {
		return fmt.Errorf("vectors is empty")
	}
	for name, v := range req.Vectors {
		i, ok := s.byName[name]
		if !ok {
			return fmt.Errorf("unknown modality %q (schema has %v)", name, s.schema.Names())
		}
		if len(v) != s.schema[i].Dim {
			return fmt.Errorf("modality %q has dim %d, expects %d", name, len(v), s.schema[i].Dim)
		}
	}
	for name := range req.Weights {
		if _, ok := s.byName[name]; !ok {
			return fmt.Errorf("weight override names unknown modality %q", name)
		}
	}
	if req.K < 0 || req.L < 0 || req.Patience < 0 || req.TimeoutMS < 0 {
		return fmt.Errorf("k, l, patience, timeout_ms must be non-negative")
	}
	return nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, decoded, ok := decodeRequest(s, w, r, scanSearch)
	if !ok {
		return
	}
	if err := s.validateSearch(&req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamped in milliseconds: converting first would overflow a
		// Duration for timeout_ms past ~9.2e12 and expire at once.
		timeout = s.cfg.MaxTimeout
		if ms := int64(req.TimeoutMS); ms <= int64(s.cfg.MaxTimeout/time.Millisecond) {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	q := must.Query{
		Vectors:             req.Vectors,
		K:                   req.K,
		L:                   req.L,
		Weights:             req.Weights,
		Patience:            req.Patience,
		DisableOptimization: req.DisableOptimization,
	}

	// The epoch is read before the search so a mutation that lands
	// mid-flight stamps the cached entry stale, never fresh.
	key := cacheKey(&req)
	epoch := s.eng.Epoch()
	if !req.NoCache {
		if resp, ok := s.cache.Get(key, epoch); ok {
			s.writeSearch(w, s.searchResponse(resp, start, decoded, 0, true))
			return
		}
	}

	resp, queued, err := s.search(ctx, q)
	if err != nil {
		s.writeSearchError(w, err)
		return
	}
	if resp.Partial {
		// A degraded answer must not outlive the sick shard that caused
		// it: serving it from the cache would turn a transient blip into
		// sticky recall loss for the epoch.
		s.metrics.ObservePartial()
	} else {
		s.cache.Put(key, epoch, resp)
	}
	s.writeSearch(w, s.searchResponse(resp, start, decoded, queued, false))
}

// search runs q on one engine slot. It waits for a free slot no longer
// than ctx allows, and turns a panic in the engine into this request's
// error: one poisoned query (or engine bug) costs its own 500, not the
// daemon. queued is the wait for the slot.
func (s *Server) search(ctx context.Context, q must.Query) (resp *must.Response, queued time.Duration, err error) {
	start := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	defer func() { <-s.slots }()
	queued = time.Since(start)
	s.metrics.ObserveQueueWait(queued)
	defer func() {
		if r := recover(); r != nil {
			s.metrics.ObserveBatchPanic()
			resp, err = nil, fmt.Errorf("search panicked: %v", r)
		}
	}()
	resp, err = s.eng.Search(ctx, q)
	return resp, queued, err
}

// searchResponse converts an engine response into the wire shape.
func (s *Server) searchResponse(resp *must.Response, start time.Time, decoded, queued time.Duration, cached bool) *SearchResponse {
	matches := make([]SearchMatch, len(resp.Matches))
	for i, m := range resp.Matches {
		matches[i] = SearchMatch{ID: m.ID, Similarity: m.Similarity, ByModality: m.ByModality}
	}
	return &SearchResponse{
		Matches:      matches,
		QueryTimeMS:  float64(time.Since(start)) / float64(time.Millisecond),
		EngineTimeMS: float64(resp.Latency) / float64(time.Millisecond),
		Cached:       cached,
		DecodeMS:     float64(decoded) / float64(time.Millisecond),
		QueueMS:      float64(queued) / float64(time.Millisecond),
		Partial:      resp.Partial,
		ShardErrors:  resp.ShardErrors,
		Stats: SearchWork{
			FullEvals:    resp.Stats.FullEvals,
			PartialSkips: resp.Stats.PartialSkips,
			Hops:         resp.Stats.Hops,
		},
	}
}

func (s *Server) writeSearchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, must.ErrNotBuilt):
		writeError(w, http.StatusConflict, "index not built: insert objects and POST /v1/rebuild")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "search timed out")
	case errors.Is(err, context.Canceled):
		// The client went away; the code is moot but keep the counter
		// honest with the nginx convention for client-closed requests.
		writeError(w, 499, "client cancelled")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// writeFailureStatus is the status of a write the engine refused:
// fallback, unless the write-ahead log failed — that is the server's
// fault and a restart cures it, so it is 503 rather than a 4xx that
// blames the request.
func writeFailureStatus(err error, fallback int) int {
	if errors.Is(err, must.ErrWALFailed) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	req, _, ok := decodeRequest(s, w, r, scanInsert)
	if !ok {
		return
	}
	objects := req.Objects
	if req.Vectors != nil {
		objects = append([]map[string][]float32{req.Vectors}, objects...)
	}
	if len(objects) == 0 {
		writeError(w, http.StatusBadRequest, "no objects to insert")
		return
	}
	ids := make([]int64, 0, len(objects))
	for i, o := range objects {
		id, err := s.eng.Insert(o)
		if err != nil {
			if errors.Is(err, must.ErrOverloaded) {
				// Engine backpressure: the write budget (or maintenance
				// debt) is exhausted. Inserts before the refusal stay
				// inserted; tell the client so it can retry just the rest.
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("overloaded, write shed (inserted %d of %d; retry the rest)", len(ids), len(objects)))
				return
			}
			// Inserts before the failure stay inserted; report both so
			// the client can reconcile.
			writeError(w, writeFailureStatus(err, http.StatusBadRequest),
				fmt.Sprintf("object %d: %v (inserted %d of %d)", i, err, len(ids), len(objects)))
			return
		}
		ids = append(ids, id)
	}
	writeJSON(w, InsertResponse{IDs: ids})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	req, _, ok := decodeRequest(s, w, r, scanDelete)
	if !ok {
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, "no ids to delete")
		return
	}
	deleted := 0
	for _, id := range req.IDs {
		if err := s.eng.Delete(id); err != nil {
			if errors.Is(err, must.ErrOverloaded) {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("overloaded, write shed (deleted %d of %d; retry the rest)", deleted, len(req.IDs)))
				return
			}
			code := http.StatusNotFound
			if errors.Is(err, must.ErrNotBuilt) {
				code = http.StatusConflict
			}
			writeError(w, writeFailureStatus(err, code), fmt.Sprintf("id %d: %v (deleted %d of %d)", id, err, deleted, len(req.IDs)))
			return
		}
		deleted++
	}
	writeJSON(w, DeleteResponse{Deleted: deleted})
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	start := time.Now()
	_, statsErr := s.eng.Stats()
	built := statsErr == nil
	var err error
	if built {
		err = s.eng.Rebuild()
	} else {
		err = s.eng.Build()
	}
	if err != nil {
		writeError(w, writeFailureStatus(err, http.StatusConflict), err.Error())
		return
	}
	writeJSON(w, RebuildResponse{
		Built:   !built,
		Objects: s.eng.Len(),
		TookMS:  float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.eng.Stats()
	built := err == nil
	hits, misses := s.cache.Counters()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	schema := make([]ModalityInfo, len(s.schema))
	for i, m := range s.schema {
		schema[i] = ModalityInfo{Name: m.Name, Dim: m.Dim}
	}
	// A one-shard engine reports no shard block.
	var shards []must.ShardInfo
	if s.eng.ShardCount() > 1 {
		shards = s.eng.ShardStats()
	}
	var maintStats *must.MaintStats
	if s.maint != nil {
		st := s.maint.Stats()
		maintStats = &st
	}
	var walStats *WALStats
	if wr, ok := s.eng.(walReporter); ok {
		st := wr.WALStats()
		walStats = &WALStats{Records: st.Records, Fsyncs: st.Fsyncs, Poisoned: st.Poisoned}
		if st.Fsyncs > 0 {
			walStats.RecordsPerFsync = float64(st.Records) / float64(st.Fsyncs)
		}
	}
	writeJSON(w, StatsResponse{
		Schema:  schema,
		Objects: s.eng.Len(),
		Deleted: s.eng.Deleted(),
		Epoch:   s.eng.Epoch(),
		Built:   built,
		Engine:  st,
		Server: ServerStats{
			CacheHits:      hits,
			CacheMisses:    misses,
			CacheHitRatio:  ratio,
			CacheEntries:   s.cache.Len(),
			InFlight:       s.metrics.inFlight.Load(),
			Rejected:       s.metrics.rejected.Load(),
			PartialResults: s.metrics.partialResults.Load(),
			BatchPanics:    s.metrics.batchPanics.Load(),
			WritesShed:     s.metrics.writesShed.Load() + s.eng.WritesShed(),
		},
		Shards:      shards,
		Maintenance: maintStats,
		WAL:         walStats,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, s.eng, s.cache, s.maint)
}
