// Package server is the mustd serving tier: HTTP/JSON handlers over a
// must.Service with GOMAXPROCS engine slots behind admission control, an
// epoch-invalidated result cache, Prometheus-text metrics, and a
// graceful drain path. It holds all daemon logic so cmd/mustd stays a
// thin flag-parsing shell and everything here is unit-testable
// in-process.
package server

import "must"

// SearchRequest is the POST /v1/search body. Vectors maps modality
// names to embeddings; modalities absent from the map are treated as
// missing (their weight is forced to zero, §VII-B of the paper).
type SearchRequest struct {
	Vectors map[string][]float32 `json:"vectors"`
	// K is the number of results (default 10).
	K int `json:"k,omitempty"`
	// L is the beam width l of Algorithm 2 (default max(4K, 100)).
	L int `json:"l,omitempty"`
	// Weights overrides the engine's per-modality weights by name for
	// this query only.
	Weights map[string]float32 `json:"weights,omitempty"`
	// Patience enables adaptive early termination after this many
	// non-improving hops (0 = full Algorithm 2).
	Patience int `json:"patience,omitempty"`
	// DisableOptimization turns off the Lemma 4 partial-IP early exit.
	DisableOptimization bool `json:"disable_optimization,omitempty"`
	// TimeoutMS bounds this request's wall-clock time; it is mapped to a
	// context deadline. 0 uses the server default; values above the
	// server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request (the response
	// is still cached for later requests).
	NoCache bool `json:"no_cache,omitempty"`
}

// SearchMatch is one result row of a SearchResponse.
type SearchMatch struct {
	ID         int64   `json:"id"`
	Similarity float32 `json:"similarity"`
	// ByModality decomposes Similarity into per-modality contributions
	// ω_i²·IP_i keyed by modality name.
	ByModality map[string]float32 `json:"by_modality,omitempty"`
}

// SearchResponse is the POST /v1/search reply.
type SearchResponse struct {
	Matches []SearchMatch `json:"matches"`
	// QueryTimeMS is this request's server-side wall time in
	// milliseconds, the wait for an engine slot included.
	QueryTimeMS float64 `json:"query_time_ms"`
	// EngineTimeMS is the engine's own routing time for the sub-query.
	EngineTimeMS float64 `json:"engine_time_ms"`
	// Cached reports the response was served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// DecodeMS is the time spent reading and parsing the request body,
	// in milliseconds; on a cache hit it is most of QueryTimeMS.
	DecodeMS float64 `json:"decode_ms,omitempty"`
	// BatchSize is always 0 since the batcher was removed, so it never
	// reaches the wire; kept until the benchmark ladder stops reading it.
	BatchSize int `json:"batch_size,omitempty"`
	// QueueMS is the time this request waited for an engine slot, in
	// milliseconds (absent when cached).
	QueueMS float64 `json:"queue_ms,omitempty"`
	// Partial reports a degraded sharded search: matches cover only the
	// shards that answered before the deadline; ShardErrors lists the
	// rest. Partial responses are never served from (or stored in) the
	// result cache.
	Partial     bool              `json:"partial,omitempty"`
	ShardErrors []must.ShardError `json:"shard_errors,omitempty"`
	// Stats reports the routing work the engine performed.
	Stats SearchWork `json:"stats"`
}

// SearchWork mirrors must.SearchStats with stable JSON names.
type SearchWork struct {
	FullEvals    int `json:"full_evals"`
	PartialSkips int `json:"partial_skips"`
	Hops         int `json:"hops"`
}

// InsertRequest is the POST /v1/insert body: one object via Vectors, or
// many via Objects (either may be used; IDs come back in order, Vectors
// first).
type InsertRequest struct {
	Vectors map[string][]float32   `json:"vectors,omitempty"`
	Objects []map[string][]float32 `json:"objects,omitempty"`
}

// InsertResponse returns the stable engine IDs of inserted objects.
type InsertResponse struct {
	IDs []int64 `json:"ids"`
}

// DeleteRequest is the POST /v1/delete body.
type DeleteRequest struct {
	IDs []int64 `json:"ids"`
}

// DeleteResponse reports how many objects were tombstoned.
type DeleteResponse struct {
	Deleted int `json:"deleted"`
}

// RebuildResponse is the POST /v1/rebuild reply.
type RebuildResponse struct {
	// Built distinguishes a first Build from a compacting Rebuild.
	Built   bool    `json:"built"`
	Objects int     `json:"objects"`
	TookMS  float64 `json:"took_ms"`
}

// ModalityInfo describes one schema modality in /v1/stats.
type ModalityInfo struct {
	Name string `json:"name"`
	Dim  int    `json:"dim"`
}

// ServerStats reports serving-tier counters in /v1/stats.
type ServerStats struct {
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	CacheEntries  int     `json:"cache_entries"`
	InFlight      int64   `json:"in_flight"`
	Rejected      uint64  `json:"rejected"`
	// PartialResults counts searches answered degraded (some shards
	// failed or timed out); BatchPanics counts engine panics recovered
	// around a search, each answered 500.
	PartialResults uint64 `json:"partial_results"`
	BatchPanics    uint64 `json:"batch_panics"`
	// WritesShed counts writes refused by write-class admission, each
	// answered 429 + Retry-After.
	WritesShed uint64 `json:"writes_shed"`
}

// StatsResponse is the GET /v1/stats reply.
type StatsResponse struct {
	Schema  []ModalityInfo `json:"schema"`
	Objects int            `json:"objects"`
	Deleted int            `json:"deleted"`
	Epoch   uint64         `json:"epoch"`
	Built   bool           `json:"built"`
	// Engine is the index-layer statistics (zero value until built).
	Engine must.Stats  `json:"engine"`
	Server ServerStats `json:"server"`
	// Shards carries per-shard build progress, sizes and epochs when the
	// engine has more than one shard (directly or behind a durable
	// wrapper); omitted at one shard.
	Shards []must.ShardInfo `json:"shards,omitempty"`
	// Maintenance reports the background maintenance loop; omitted when
	// maintenance is disabled.
	Maintenance *must.MaintStats `json:"maintenance,omitempty"`
	// WAL reports the write-ahead log; omitted when the service is not
	// durable.
	WAL *WALStats `json:"wal,omitempty"`
}

// WALStats is the write-ahead-log block of /v1/stats.
type WALStats struct {
	// Records and Fsyncs count logged records and log-data fsyncs since
	// the daemon started; RecordsPerFsync is their ratio, the mean number
	// of writes one group commit acked (1 with a single writer).
	Records         uint64  `json:"records"`
	Fsyncs          uint64  `json:"fsyncs"`
	RecordsPerFsync float64 `json:"records_per_fsync"`
	// Poisoned is true once a WAL write or fsync has failed: every write
	// is answered 503 until the daemon is restarted.
	Poisoned bool `json:"poisoned"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
