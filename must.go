// Package must is a Go implementation of MUST — the Multimodal Search of
// Target Modality framework (Wang et al., ICDE 2024). It answers queries
// that combine a target-modality example (e.g. a reference image) with
// auxiliary-modality constraints (e.g. an edit described in text) against
// a corpus of multimodal objects.
//
// The framework has three pluggable stages (§IV of the paper):
//
//  1. Embedding: every object and query is represented by one vector per
//     modality (multi-vector representation, §V). Any encoder can produce
//     these vectors; this package consumes the vectors directly.
//  2. Vector weight learning (§VI): Engine.LearnWeights fits per-modality
//     importance weights ω with a contrastive objective so the joint
//     similarity Σ ω_i²·IP_i ranks true results first. Weights may also be
//     set manually (Engine.SetWeights, or per query through Query.Weights:
//     user-defined weights, §VIII-F).
//  3. Fused indexing and joint search (§VII): Engine.Build constructs one
//     proximity graph over the weighted concatenated vectors with the
//     paper's "Ours" pipeline (γ from EngineOptions.Build); Engine.Search
//     routes greedily through it under the joint similarity, with the
//     multi-vector partial-IP optimization of Lemma 4. Engine.ExactSearch
//     is the exhaustive baseline (the paper's MUST--).
//
// # Quick start
//
// The Engine is the entry point: named modalities, typed Query/Response
// with per-modality score breakdowns, context-aware search, and safety
// under concurrent Search/Insert/Delete/Rebuild:
//
//	e, _ := must.NewEngine(must.Schema{{"image", 128}, {"text", 32}}, must.EngineOptions{})
//	for _, o := range objects { e.Insert(o) }  // NamedVectors per object
//	e.LearnWeights(trainQueries, trainPositives, must.WeightConfig{})
//	e.Build()
//	resp, _ := e.Search(ctx, must.Query{Vectors: must.NamedVectors{"image": img, "text": txt}, K: 10})
//
// The Engine is one type at every scale: NewEngine holds one graph, and
// NewShardedEngine partitions the corpus over S graphs behind the same
// methods (S = 1 is the degenerate case, not a second implementation).
// Engine implements Service; WriteSnapshot saves it crash-safely, and
// LoadEngine/LoadService restore a snapshot of any shard count.
package must

import (
	"fmt"
	"math"

	"must/internal/graph"
	"must/internal/index"
	"must/internal/vec"
)

// Object is one multimodal object or query: one embedding vector per
// modality. Modality 0 is the target modality. Vectors should be
// L2-normalized; the engine normalizes stored objects and queries
// defensively.
type Object = [][]float32

// Weights are the per-modality importance weights ω of §VI. The joint
// similarity between two objects is Σ ω_i² · IP(a_i, b_i) (Lemma 1).
type Weights = []float32

// collection accumulates multimodal objects with a fixed modality layout.
//
// Vectors live in one shared arena-backed vec.FlatStore from the moment
// they are added: Add normalizes each modality directly into the next
// packed row, and the same store is what graph construction, every pooled
// searcher, brute-force scans, and persistence operate on — the corpus is
// resident exactly once. The store's arena is chunked, so appends never
// move existing rows and zero-copy views handed out earlier stay valid.
type collection struct {
	dims []int
	// names labels the modalities (the Engine's schema, preserved by the
	// persistence format); nil when no modality is named.
	names []string
	// store is the single packed corpus; nil until the first Add (or
	// installed whole by the collection loader).
	store *vec.FlatStore
}

// Len returns the number of objects added.
func (c *collection) Len() int {
	if c.store == nil {
		return 0
	}
	return c.store.Len()
}

// Add validates, normalizes and stores an object, returning its ID
// (position). IDs are dense and stable. The vectors are packed straight
// into the collection's shared flat store — no per-object allocation and
// no later re-copy into a search-time layout.
func (c *collection) Add(o Object) (int, error) {
	if len(c.dims) == 0 {
		return 0, fmt.Errorf("must: collection has no modalities configured")
	}
	if len(o) != len(c.dims) {
		return 0, fmt.Errorf("must: object has %d modalities, collection expects %d", len(o), len(c.dims))
	}
	for i, v := range o {
		if len(v) != c.dims[i] {
			return 0, fmt.Errorf("must: modality %d has dim %d, collection expects %d", i, len(v), c.dims[i])
		}
		if err := checkFinite(v); err != nil {
			return 0, fmt.Errorf("must: modality %d: %w", i, err)
		}
	}
	if c.store == nil {
		// First Add: validate the layout before the store constructor (which
		// treats bad dims as a caller bug and panics), so a degenerate
		// dimension surfaces here as an error.
		for i, d := range c.dims {
			if d <= 0 {
				return 0, fmt.Errorf("must: modality %d has non-positive dim %d", i, d)
			}
		}
		c.store = vec.NewFlatStore(c.dims, 0)
	}
	row := c.store.AppendRow()
	offs := c.store.Offsets()
	for i, v := range o {
		seg := row[offs[i]:offs[i+1]]
		copy(seg, v)
		vec.Normalize(seg)
	}
	return c.store.Len() - 1, nil
}

// checkFinite rejects NaN/Inf coordinates, which would silently poison
// every similarity they touch.
func checkFinite(v []float32) error {
	for i, x := range v {
		if x != x || x > math.MaxFloat32 || x < -math.MaxFloat32 {
			return fmt.Errorf("non-finite value at coordinate %d", i)
		}
	}
	return nil
}

// query converts and validates an external query against the collection
// layout. Like Add, it rejects non-finite coordinates: they would reach
// the kernels, whose results are only defined on finite inputs.
func (c *collection) query(q Object) (vec.Multi, error) {
	if len(q) != len(c.dims) {
		return nil, fmt.Errorf("must: query has %d modalities, collection expects %d", len(q), len(c.dims))
	}
	mv := make(vec.Multi, len(q))
	for i, v := range q {
		if v == nil {
			// Missing modality: zero vector, excluded by a zero weight at
			// search time (§VII-B).
			mv[i] = make([]float32, c.dims[i])
			continue
		}
		if len(v) != c.dims[i] {
			return nil, fmt.Errorf("must: query modality %d has dim %d, expects %d", i, len(v), c.dims[i])
		}
		if err := checkFinite(v); err != nil {
			if i < len(c.names) {
				return nil, fmt.Errorf("must: query modality %q: %w", c.names[i], err)
			}
			return nil, fmt.Errorf("must: query modality %d: %w", i, err)
		}
		mv[i] = vec.Normalized(v)
	}
	return mv, nil
}

// WeightConfig configures Engine.LearnWeights; the zero value uses the
// paper's defaults (learning rate 0.002, 700 epochs, 10 hard negatives).
type WeightConfig struct {
	// LearningRate is the gradient-descent step size.
	LearningRate float64
	// Epochs is the number of training passes.
	Epochs int
	// Negatives is the number of hard negative examples per anchor |N−|.
	Negatives int
	// Seed fixes training randomness.
	Seed int64
}

// BuildOptions configures index construction; the zero value uses the
// paper's defaults. The engine always builds the paper's "Ours" pipeline
// (§VII-A); the §VIII-G comparison with other graphs lives in
// internal/experiments.
type BuildOptions struct {
	// Gamma is the maximum out-degree γ (Appendix H): 0 means the
	// default 30, otherwise 1 to 1,024.
	Gamma int
	// Seed fixes construction randomness.
	Seed int64
}

// maxGamma is the largest accepted BuildOptions.Gamma. Search-based
// inserts keep a beam of 4·γ candidates, so the bound keeps a bad option
// or snapshot word from asking for gigabytes.
const maxGamma = 1024

// nnDescentIters is the NNDescent iteration cap ε of the build pipeline.
const nnDescentIters = 3

// validate rejects a γ outside [0, maxGamma].
func (o BuildOptions) validate() error {
	if o.Gamma < 0 || o.Gamma > maxGamma {
		return fmt.Errorf("must: gamma %d outside [0, %d]", o.Gamma, maxGamma)
	}
	return nil
}

// withDefaults fills the paper's γ = 30 into a zero Gamma. The Engine
// keeps its options as given, so a snapshot records them verbatim, and
// resolves the default where it builds or links.
func (o BuildOptions) withDefaults() BuildOptions {
	if o.Gamma == 0 {
		o.Gamma = 30
	}
	return o
}

// buildFused constructs the fused proximity-graph index over the
// collection under the given weights. It consumes the collection's shared
// store directly: the weighted fused block is materialized only for the
// duration of construction and released before buildFused returns, so
// the built system holds the corpus exactly once.
func buildFused(c *collection, w Weights, opts BuildOptions) (*index.Fused, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("must: cannot index an empty collection")
	}
	opts = opts.withDefaults()
	return index.BuildFusedStore(c.store, vec.Weights(w), graph.Ours(opts.Gamma, nnDescentIters, opts.Seed))
}

// Stats summarizes the built index, including the per-component memory
// accounting of the single-store architecture: CorpusBytes is the one
// resident copy of the vectors, FusedBytes is the transient weighted
// build buffer (always 0 on a built index — it is released before Build
// returns), and SizeBytes is the graph.
// Stats is part of the serving API surface: /v1/stats marshals it
// verbatim, so the JSON field names below are a stable contract —
// rename a Go field if you must, but keep the tag.
type Stats struct {
	// Objects is the indexed object count.
	Objects int `json:"objects"`
	// Edges is the directed edge count of the proximity graph.
	Edges int `json:"edges"`
	// AvgDegree is the mean out-degree.
	AvgDegree float64 `json:"avg_degree"`
	// SizeBytes is the graph memory footprint: the flat CSR edge array
	// (4 B/edge) plus the per-vertex offsets (4 B/vertex) plus any live
	// incremental-insert overlay (0 in steady state).
	SizeBytes int64 `json:"size_bytes"`
	// GraphBytesPerEdge is SizeBytes normalized by Edges — ≈4.2 B/edge
	// for a sealed CSR topology at the default degree bound (the
	// slice-of-slices layout it replaced paid 4 B/edge + 24 B/vertex of
	// headers on top).
	GraphBytesPerEdge float64 `json:"graph_bytes_per_edge"`
	// CorpusBytes is the memory committed to the shared vector store —
	// the single copy of the corpus every layer views.
	CorpusBytes int64 `json:"corpus_bytes"`
	// RawVectorBytes is the payload lower bound: objects × concatenated
	// dim × 4 bytes. CorpusBytes/RawVectorBytes ≈ 1 demonstrates the
	// single-copy property (growable-arena slack keeps it ≤ ~1.2 even
	// after incremental inserts).
	RawVectorBytes int64 `json:"raw_vector_bytes"`
	// FusedBytes is the transient weighted-concatenation buffer used
	// during construction; 0 once the index is built.
	FusedBytes int64 `json:"fused_bytes"`
	// QuantizedBytes is the memory committed to the SQ8 shadow store
	// (≈ CorpusBytes/4); 0 when quantization is not enabled.
	QuantizedBytes int64 `json:"quantized_bytes"`
	// OverlayVertices counts vertices living in the incremental-insert
	// overlay rather than the sealed CSR — the compaction debt a rebuild
	// pays off.
	OverlayVertices int `json:"overlay_vertices"`
	// OverlayRatio is OverlayVertices / Objects: the maintenance
	// scheduler compares it against its overlay watermark.
	OverlayRatio float64 `json:"overlay_ratio"`
	// TombstoneRatio is tombstoned objects / Objects: the fraction of
	// the graph that routes but never returns. The maintenance scheduler
	// compares it against its tombstone watermark.
	TombstoneRatio float64 `json:"tombstone_ratio"`
	// KernelVariant names the dot-kernel implementation serving this
	// process: "avx2", "neon", or "go" (the pure-Go fallback).
	KernelVariant string `json:"kernel_variant"`
	// BuildTime is the wall-clock construction time in nanoseconds.
	BuildTime int64 `json:"build_time_ns"`
	// Algorithm names the construction pipeline.
	Algorithm string `json:"algorithm"`
}
