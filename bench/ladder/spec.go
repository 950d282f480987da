package main

// This file is the benchmark's registry: every workload and metric name the
// program can emit. BENCHMARK.json at the repository root carries the same
// names, units, directions and bounds (the contract's exact key set has no
// room for the layer/prediction columns, which live here and in README.md);
// ladder_test.go fails when the two disagree.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

// metricSpec describes one emitted metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the regression bound of an end-to-end metric as a share of
	// the parent's median; per-layer metrics have none.
	Bound float64
	// Moves is the prediction for a per-layer metric: which end-to-end
	// metric it should move, on which workload ("∅" = predicted no change).
	Moves string
}

// Workload names are stable: later issues cite them.
const (
	wServeRead   = "serve_read"
	wServeHot    = "serve_hot"
	wRecallSweep = "recall_sweep"
	wRecallSQ8   = "recall_sweep_sq8"
	wChurn       = "churn_durable"
	wWrite       = "write_durable"
)

var workloads = []workloadSpec{
	{wServeRead, "HTTP search, every query distinct: the engine (graph routing over 3 KB float32 rows) and the 1 ms batch window do most of the work"},
	{wServeHot, "HTTP search, 1,024 Zipf-drawn queries all cached: only HTTP, JSON and the result cache work; a kernel change must not move it"},
	{wRecallSweep, "library Engine.Search over a grid of l, one caller, no serving tier: the paper's QPS-at-recall axis on the float32 path"},
	{wRecallSQ8, "the same sweep after EnableQuantization: the only workload where the SQ8 scanner and exact re-rank run"},
	{wChurn, "HTTP 80/10/10 search/insert/delete on a durable 4-shard engine: shard fan-out/merge under the write lock, WAL fsync and paced rebuilds"},
	{wWrite, "HTTP 50/50 insert/delete on the same durable engine, no reads: every op is a WAL-fsynced write, so the write path alone sets the numbers"},
}

// End-to-end metric names. Every workload emits every one (untraced).
const (
	mSetup    = "setup_s"
	mOpsPerS  = "ops_per_s"
	mP50      = "op_p50_ms"
	mP90      = "op_p90_ms"
	mP99      = "op_p99_ms"
	mRecall   = "recall_at_10"
	mIdxBytes = "index_bytes_per_raw_byte"
)

// The timing bounds are what this 2-core sandbox's own drift demands: with
// nothing changed, runs minutes apart differ by 10–20 % (REPEAT.md), so a
// tighter bound would reject unchanged code.
var endToEnd = []metricSpec{
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: mOpsPerS, Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: mP50, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mP90, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mP99, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mRecall, Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: mIdxBytes, Unit: "ratio", Better: "lower", Bound: 0.01},
}

// Prediction shorthands used in the per-layer table.
const (
	movesKernel = "op_p50_ms, ops_per_s on serve_read; ops_per_s on recall_sweep; ∅ on serve_hot"
	movesSQ8    = "ops_per_s on recall_sweep_sq8 only"
	movesSetup  = "setup_s on every workload; index_bytes_per_raw_byte"
	movesEngine = "ops_per_s on serve_read and recall_sweep (small share); op_p50_ms on write_durable"
	movesShard  = "op_p50_ms on churn_durable; ∅ on serve_read/serve_hot (S=1)"
	movesServe  = "op_p50_ms on serve_read; ops_per_s on serve_hot"
	movesWrite  = "op_p50_ms, ops_per_s on write_durable; ∅ on the read-only workloads"
	movesMaint  = "op_p99_ms on churn_durable and write_durable"
	movesNone   = "diagnostic; moves nothing by itself"
)

// perLayer lists the per-layer metrics (layer = the prefix before the
// first dot, a module name). Every workload emits every one (traced); a
// layer a workload does not exercise reports the 0 it measured.
var perLayer = []metricSpec{
	{Name: "vec.dot_f32_ns_768", Unit: "ns", Better: "lower", Moves: movesKernel},
	{Name: "vec.flatscan_ns_per_row", Unit: "ns", Better: "lower", Moves: movesKernel},
	{Name: "vec.flatscan_skip_ratio", Unit: "ratio", Better: "higher", Moves: movesKernel},
	{Name: "vec.sq8scan_ns_per_row", Unit: "ns", Better: "lower", Moves: movesSQ8},
	{Name: "vec.sq8_bytes_per_row", Unit: "B", Better: "lower", Moves: movesSQ8},

	{Name: "search.route_us_l160", Unit: "us", Better: "lower", Moves: movesKernel},
	{Name: "search.route_us_l400", Unit: "us", Better: "lower", Moves: movesKernel},
	{Name: "search.hops_per_query", Unit: "count", Better: "lower", Moves: movesKernel},
	{Name: "search.full_evals_per_query", Unit: "count", Better: "lower", Moves: movesKernel},
	{Name: "search.partial_skip_ratio", Unit: "ratio", Better: "higher", Moves: movesKernel},
	{Name: "search.sq8_route_us_l160", Unit: "us", Better: "lower", Moves: movesSQ8},
	{Name: "search.allocs_per_query", Unit: "count", Better: "lower", Moves: movesKernel},

	{Name: "graph.build_s", Unit: "s", Better: "lower", Moves: movesSetup},
	{Name: "graph.bytes_per_edge", Unit: "B", Better: "lower", Moves: movesSetup},
	{Name: "index.save_s", Unit: "s", Better: "lower", Moves: movesSetup},
	{Name: "index.load_s", Unit: "s", Better: "lower", Moves: movesSetup},

	{Name: "engine.search_us", Unit: "us", Better: "lower", Moves: movesEngine},
	{Name: "engine.overhead_us", Unit: "us", Better: "lower", Moves: movesEngine},
	{Name: "engine.exact_search_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "engine.insert_us", Unit: "us", Better: "lower", Moves: movesEngine},
	{Name: "engine.search_span_us", Unit: "us", Better: "lower", Moves: movesEngine},
	{Name: "engine.index_bytes_per_raw_byte_end", Unit: "ratio", Better: "lower", Moves: movesNone},

	{Name: "shard.search_us_s1", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "shard.search_us_s2", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "shard.search_us_s4", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "shard.merge_us", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "shard.partial_ratio", Unit: "ratio", Better: "lower", Moves: movesShard},

	{Name: "server.queue_batch_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "server.batch_size_mean", Unit: "count", Better: "higher", Moves: movesServe},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesServe},
	{Name: "server.handler_us", Unit: "us", Better: "lower", Moves: movesServe},
	{Name: "server.json_decode_us", Unit: "us", Better: "lower", Moves: movesServe},
	{Name: "server.json_encode_us", Unit: "us", Better: "lower", Moves: movesServe},
	{Name: "server.shed_ratio", Unit: "ratio", Better: "lower", Moves: movesServe},
	{Name: "http.transport_us", Unit: "us", Better: "lower", Moves: movesServe},

	{Name: "wal.append_us_fsync_always", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "wal.append_us_fsync_off", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: movesWrite},
	{Name: "durable.insert_overhead_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "durable.recover_s", Unit: "s", Better: "lower", Moves: movesNone},
	{Name: "durable.replay_us_per_record", Unit: "us", Better: "lower", Moves: movesNone},

	{Name: "maint.rebuilds", Unit: "count", Better: "higher", Moves: movesMaint},
	{Name: "maint.failures", Unit: "count", Better: "lower", Moves: movesMaint},
	{Name: "maint.debt_end", Unit: "count", Better: "lower", Moves: movesMaint},
	{Name: "maint.overlay_ratio_end", Unit: "ratio", Better: "lower", Moves: movesMaint},
	{Name: "maint.tombstone_ratio_end", Unit: "ratio", Better: "lower", Moves: movesMaint},

	{Name: "client.search_p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on the HTTP workloads"},
	{Name: "client.search_p99_ms", Unit: "ms", Better: "lower", Moves: "op_p99_ms on serve_read/serve_hot"},
	{Name: "client.insert_ack_p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on write_durable"},
	{Name: "client.insert_ack_p99_ms", Unit: "ms", Better: "lower", Moves: "op_p99_ms on write_durable"},
	{Name: "client.insert_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s on write_durable"},
	{Name: "client.encode_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "client.decode_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "client.unattributed_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: movesNone},
}
