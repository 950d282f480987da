package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"must"
)

// Metrics is a dependency-free Prometheus registry scoped to what mustd
// exports: request counters by endpoint and status code, latency
// histograms by endpoint, the engine-slot-wait and body-decode
// histograms, cache and admission counters, and engine gauges sampled at
// scrape time. All increments are atomic; the only lock guards lazy
// counter creation.
type Metrics struct {
	mu       sync.Mutex
	requests map[requestKey]*atomic.Uint64
	latency  map[string]*histogram

	queueWait *histogram

	// decodeFast and decodeStd count request bodies by the decoder that
	// produced the verdict: the fast scan, or encoding/json after the
	// scan declined. decodeTime is body read + parse for either.
	decodeFast atomic.Uint64
	decodeStd  atomic.Uint64
	decodeTime *histogram

	inFlight atomic.Int64
	rejected atomic.Uint64

	// writesShed counts write requests refused by write-class admission
	// (429 + Retry-After).
	writesShed atomic.Uint64

	// partialResults counts searches answered degraded (some shards
	// failed or timed out); batchPanics counts engine panics recovered
	// around a search's engine call.
	partialResults atomic.Uint64
	batchPanics    atomic.Uint64
}

type requestKey struct {
	endpoint string
	code     int
}

// latencyBuckets are upper bounds in seconds, 100µs to ~10s.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// decodeBuckets start at 10µs: the fast scan decodes a 768-d body in
// ~20µs (~25µs with Python's 17-digit floats), inside the first latency
// bucket.
var decodeBuckets = append([]float64{0.00001, 0.000025, 0.00005}, latencyBuckets...)

// histogram is a fixed-bucket Prometheus histogram with atomic counters
// (sum is stored as float64 bits updated by CAS).
type histogram struct {
	bounds  []float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds))}
}

func (h *histogram) observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *histogram) sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:   make(map[requestKey]*atomic.Uint64),
		latency:    make(map[string]*histogram),
		queueWait:  newHistogram(latencyBuckets),
		decodeTime: newHistogram(decodeBuckets),
	}
}

// ObserveRequest records one finished request.
func (m *Metrics) ObserveRequest(endpoint string, code int, seconds float64) {
	m.requestCounter(endpoint, code).Add(1)
	m.latencyHistogram(endpoint).observe(seconds)
}

// ObserveQueueWait records how long one search waited for an engine
// slot.
func (m *Metrics) ObserveQueueWait(d time.Duration) { m.queueWait.observe(d.Seconds()) }

// ObserveDecode records one request body read and parsed in d; fast
// says the fast scan accepted it, otherwise encoding/json decided.
func (m *Metrics) ObserveDecode(fast bool, d time.Duration) {
	if fast {
		m.decodeFast.Add(1)
	} else {
		m.decodeStd.Add(1)
	}
	m.decodeTime.observe(d.Seconds())
}

func (m *Metrics) requestCounter(endpoint string, code int) *atomic.Uint64 {
	key := requestKey{endpoint, code}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.requests[key]
	if c == nil {
		c = &atomic.Uint64{}
		m.requests[key] = c
	}
	return c
}

func (m *Metrics) latencyHistogram(endpoint string) *histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.latency[endpoint]
	if h == nil {
		h = newHistogram(latencyBuckets)
		m.latency[endpoint] = h
	}
	return h
}

// ObservePartial records one search served with partial (degraded)
// results.
func (m *Metrics) ObservePartial() { m.partialResults.Add(1) }

// ObserveBatchPanic records one engine panic recovered around a search.
func (m *Metrics) ObserveBatchPanic() { m.batchPanics.Add(1) }

// WritePrometheus renders the registry — plus cache counters, engine
// gauges, and maintenance counters sampled now — in Prometheus text
// exposition format. maint may be nil (maintenance disabled).
func (m *Metrics) WritePrometheus(w io.Writer, eng must.Service, cache *resultCache, maint *must.Maintainer) {
	// Request counters, sorted for deterministic scrapes.
	m.mu.Lock()
	reqKeys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	latKeys := make([]string, 0, len(m.latency))
	for k := range m.latency {
		latKeys = append(latKeys, k)
	}
	m.mu.Unlock()
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	sort.Strings(latKeys)

	fmt.Fprintln(w, "# HELP mustd_requests_total Requests served, by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE mustd_requests_total counter")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "mustd_requests_total{endpoint=%q,code=\"%d\"} %d\n",
			k.endpoint, k.code, m.requestCounter(k.endpoint, k.code).Load())
	}

	fmt.Fprintln(w, "# HELP mustd_request_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE mustd_request_seconds histogram")
	for _, ep := range latKeys {
		writeHistogram(w, "mustd_request_seconds", fmt.Sprintf("endpoint=%q", ep), m.latencyHistogram(ep))
	}

	fmt.Fprintln(w, "# HELP must_batch_queue_seconds Time a search waited for an engine slot.")
	fmt.Fprintln(w, "# TYPE must_batch_queue_seconds histogram")
	writeHistogram(w, "must_batch_queue_seconds", "", m.queueWait)

	fmt.Fprintln(w, "# HELP must_decode_total Request bodies decoded, by path: the fast scan, or encoding/json after the scan declined.")
	fmt.Fprintln(w, "# TYPE must_decode_total counter")
	fmt.Fprintf(w, "must_decode_total{path=\"fast\"} %d\n", m.decodeFast.Load())
	fmt.Fprintf(w, "must_decode_total{path=\"std\"} %d\n", m.decodeStd.Load())
	fmt.Fprintln(w, "# HELP must_decode_seconds Time to read and parse a request body.")
	fmt.Fprintln(w, "# TYPE must_decode_seconds histogram")
	writeHistogram(w, "must_decode_seconds", "", m.decodeTime)

	hits, misses := cache.Counters()
	fmt.Fprintln(w, "# HELP mustd_cache_hits_total Result-cache hits.")
	fmt.Fprintln(w, "# TYPE mustd_cache_hits_total counter")
	fmt.Fprintf(w, "mustd_cache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP mustd_cache_misses_total Result-cache misses (stale-epoch evictions included).")
	fmt.Fprintln(w, "# TYPE mustd_cache_misses_total counter")
	fmt.Fprintf(w, "mustd_cache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP mustd_cache_entries Live result-cache entries.")
	fmt.Fprintln(w, "# TYPE mustd_cache_entries gauge")
	fmt.Fprintf(w, "mustd_cache_entries %d\n", cache.Len())

	fmt.Fprintln(w, "# HELP mustd_in_flight_requests Requests currently admitted.")
	fmt.Fprintln(w, "# TYPE mustd_in_flight_requests gauge")
	fmt.Fprintf(w, "mustd_in_flight_requests %d\n", m.inFlight.Load())
	fmt.Fprintln(w, "# HELP mustd_rejected_total Requests rejected by admission control (429).")
	fmt.Fprintln(w, "# TYPE mustd_rejected_total counter")
	fmt.Fprintf(w, "mustd_rejected_total %d\n", m.rejected.Load())

	fmt.Fprintln(w, "# HELP must_partial_results_total Searches answered degraded: some shards failed or missed the deadline.")
	fmt.Fprintln(w, "# TYPE must_partial_results_total counter")
	fmt.Fprintf(w, "must_partial_results_total %d\n", m.partialResults.Load())
	fmt.Fprintln(w, "# HELP must_batch_panics_total Engine panics recovered around a search (each fails only its own request).")
	fmt.Fprintln(w, "# TYPE must_batch_panics_total counter")
	fmt.Fprintf(w, "must_batch_panics_total %d\n", m.batchPanics.Load())

	// Self-healing counters.
	fmt.Fprintln(w, "# HELP must_writes_shed_total Writes refused by write-class admission (429 + Retry-After).")
	fmt.Fprintln(w, "# TYPE must_writes_shed_total counter")
	fmt.Fprintf(w, "must_writes_shed_total %d\n", m.writesShed.Load())
	if maint != nil {
		st := maint.Stats()
		fmt.Fprintln(w, "# HELP must_maintenance_rebuilds_total Background maintenance rebuilds completed.")
		fmt.Fprintln(w, "# TYPE must_maintenance_rebuilds_total counter")
		fmt.Fprintf(w, "must_maintenance_rebuilds_total %d\n", st.Rebuilds)
		fmt.Fprintln(w, "# HELP must_maintenance_failures_total Background maintenance rebuilds that failed.")
		fmt.Fprintln(w, "# TYPE must_maintenance_failures_total counter")
		fmt.Fprintf(w, "must_maintenance_failures_total %d\n", st.Failures)
		fmt.Fprintln(w, "# HELP must_maintenance_debt Units (shards) at or past a watermark at the last sample.")
		fmt.Fprintln(w, "# TYPE must_maintenance_debt gauge")
		fmt.Fprintf(w, "must_maintenance_debt %d\n", st.Debt)
	}

	if wr, ok := eng.(walReporter); ok {
		st := wr.WALStats()
		fmt.Fprintln(w, "# HELP must_wal_records_total Records written to the write-ahead log.")
		fmt.Fprintln(w, "# TYPE must_wal_records_total counter")
		fmt.Fprintf(w, "must_wal_records_total %d\n", st.Records)
		fmt.Fprintln(w, "# HELP must_wal_fsyncs_total Fsyncs of write-ahead-log data; records/fsyncs is the mean commit-group size.")
		fmt.Fprintln(w, "# TYPE must_wal_fsyncs_total counter")
		fmt.Fprintf(w, "must_wal_fsyncs_total %d\n", st.Fsyncs)
		fmt.Fprintln(w, "# HELP must_wal_fsync_seconds Write-ahead-log fsync latency.")
		fmt.Fprintln(w, "# TYPE must_wal_fsync_seconds histogram")
		cum := uint64(0)
		for i, b := range st.FsyncBounds {
			cum += st.FsyncBuckets[i]
			fmt.Fprintf(w, "must_wal_fsync_seconds_bucket{le=%q} %d\n", strconv.FormatFloat(b, 'g', -1, 64), cum)
		}
		fmt.Fprintf(w, "must_wal_fsync_seconds_bucket{le=\"+Inf\"} %d\n", st.Fsyncs)
		fmt.Fprintf(w, "must_wal_fsync_seconds_sum %g\n", st.FsyncSeconds)
		fmt.Fprintf(w, "must_wal_fsync_seconds_count %d\n", st.Fsyncs)
		poisoned := 0
		if st.Poisoned {
			poisoned = 1
		}
		fmt.Fprintln(w, "# HELP must_wal_poisoned 1 once a write-ahead-log failure has made the service reject writes until restart.")
		fmt.Fprintln(w, "# TYPE must_wal_poisoned gauge")
		fmt.Fprintf(w, "must_wal_poisoned %d\n", poisoned)
	}

	// Engine gauges, sampled at scrape time.
	fmt.Fprintln(w, "# HELP mustd_engine_objects Live (non-tombstoned) objects.")
	fmt.Fprintln(w, "# TYPE mustd_engine_objects gauge")
	fmt.Fprintf(w, "mustd_engine_objects %d\n", eng.Len())
	fmt.Fprintln(w, "# HELP mustd_engine_deleted Tombstoned objects awaiting rebuild.")
	fmt.Fprintln(w, "# TYPE mustd_engine_deleted gauge")
	fmt.Fprintf(w, "mustd_engine_deleted %d\n", eng.Deleted())
	fmt.Fprintln(w, "# HELP mustd_engine_epoch Engine mutation epoch.")
	fmt.Fprintln(w, "# TYPE mustd_engine_epoch gauge")
	fmt.Fprintf(w, "mustd_engine_epoch %d\n", eng.Epoch())
	if st, err := eng.Stats(); err == nil {
		fmt.Fprintln(w, "# HELP mustd_engine_edges Directed edges in the proximity graph.")
		fmt.Fprintln(w, "# TYPE mustd_engine_edges gauge")
		fmt.Fprintf(w, "mustd_engine_edges %d\n", st.Edges)
		fmt.Fprintln(w, "# HELP mustd_engine_graph_bytes Graph memory footprint.")
		fmt.Fprintln(w, "# TYPE mustd_engine_graph_bytes gauge")
		fmt.Fprintf(w, "mustd_engine_graph_bytes %d\n", st.SizeBytes)
		fmt.Fprintln(w, "# HELP mustd_engine_corpus_bytes Shared vector-store memory.")
		fmt.Fprintln(w, "# TYPE mustd_engine_corpus_bytes gauge")
		fmt.Fprintf(w, "mustd_engine_corpus_bytes %d\n", st.CorpusBytes)
	}
}

func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep,
			strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count.Load())
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.sum())
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum())
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	}
}
