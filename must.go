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
//  2. Vector weight learning (§VI): LearnWeights fits per-modality
//     importance weights ω with a contrastive objective so the joint
//     similarity Σ ω_i²·IP_i ranks true results first. Weights may also be
//     set manually (user-defined weights, §VIII-F).
//  3. Fused indexing and joint search (§VII): Build constructs one
//     proximity graph over the weighted concatenated vectors; Index.Search
//     routes greedily through it under the joint similarity, with the
//     multi-vector partial-IP optimization of Lemma 4.
//
// # Quick start
//
// The Engine is the recommended entry point: named modalities, typed
// Query/Response with per-modality score breakdowns, context-aware
// search, and safety under concurrent Search/Insert/Delete/Rebuild:
//
//	e, _ := must.NewEngine(must.Schema{{"image", 128}, {"text", 32}}, must.EngineOptions{})
//	for _, o := range objects { e.Insert(o) }  // NamedVectors per object
//	e.LearnWeights(trainQueries, trainPositives, must.WeightConfig{})
//	e.Build()
//	resp, _ := e.Search(ctx, must.Query{Vectors: must.NamedVectors{"image": img, "text": txt}, K: 10})
//
// # Low-level layer
//
// Collection/Build/Index remain as the positional single-goroutine layer
// the Engine delegates to:
//
//	c := must.NewCollection(128, 32)          // two modalities
//	for _, o := range objects { c.Add(o) }    // [][]float32 per object
//	w, _ := must.LearnWeights(c, trainQueries, trainPositives, must.WeightConfig{})
//	ix, _ := must.Build(c, w, must.BuildOptions{})
//	matches, _ := ix.Search(query, must.SearchOptions{K: 10})
package must

import (
	"fmt"
	"math"

	"must/internal/graph"
	"must/internal/index"
	"must/internal/search"
	"must/internal/vec"
	"must/internal/weights"
)

// Object is one multimodal object or query: one embedding vector per
// modality. Modality 0 is the target modality. Vectors should be
// L2-normalized; Collection.Add normalizes defensively.
type Object = [][]float32

// Weights are the per-modality importance weights ω of §VI. The joint
// similarity between two objects is Σ ω_i² · IP(a_i, b_i) (Lemma 1).
type Weights = []float32

// Collection accumulates multimodal objects with a fixed modality layout.
//
// Vectors live in one shared arena-backed vec.FlatStore from the moment
// they are added: Add normalizes each modality directly into the next
// packed row, and the same store is what graph construction, every pooled
// searcher, brute-force scans, and persistence operate on — the corpus is
// resident exactly once. The store's arena is chunked, so appends never
// move existing rows and zero-copy views handed out earlier stay valid.
type Collection struct {
	dims []int
	// names optionally labels the modalities (set by the Engine's Schema
	// and preserved by the v2+ persistence formats); nil for collections
	// created positionally.
	names []string
	// store is the single packed corpus; nil until the first Add (or
	// installed whole by the collection loaders).
	store *vec.FlatStore
}

// NewCollection creates a collection whose objects have one vector per
// modality with the given dimensions. Modality 0 is the target modality.
func NewCollection(dims ...int) *Collection {
	out := &Collection{dims: append([]int(nil), dims...)}
	return out
}

// Modalities returns the number of modalities per object.
func (c *Collection) Modalities() int { return len(c.dims) }

// Dims returns the per-modality vector dimensions.
func (c *Collection) Dims() []int { return append([]int(nil), c.dims...) }

// Names returns the per-modality names, or nil if the collection was
// created without a schema.
func (c *Collection) Names() []string {
	if c.names == nil {
		return nil
	}
	return append([]string(nil), c.names...)
}

// Len returns the number of objects added.
func (c *Collection) Len() int {
	if c.store == nil {
		return 0
	}
	return c.store.Len()
}

// Add validates, normalizes and stores an object, returning its ID
// (position). IDs are dense and stable. The vectors are packed straight
// into the collection's shared flat store — no per-object allocation and
// no later re-copy into a search-time layout.
func (c *Collection) Add(o Object) (int, error) {
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
		// treats bad dims as a caller bug and panics) — NewCollection does
		// not validate, so a degenerate dimension surfaces here as an error.
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

// Object returns a copy of the stored object with the given ID.
func (c *Collection) Object(id int) (Object, error) {
	if id < 0 || id >= c.Len() {
		return nil, fmt.Errorf("must: object id %d out of range [0,%d)", id, c.Len())
	}
	mv := c.store.Multi(id)
	out := make(Object, len(mv))
	for i, v := range mv {
		out[i] = vec.Clone(v)
	}
	return out, nil
}

// multi returns the stored object as zero-copy views into the shared
// store's packed row.
func (c *Collection) multi(id int) vec.Multi { return c.store.Multi(id) }

// UniformWeights returns equal weights for every modality (ω_i² = 1/m),
// the no-learning default.
func (c *Collection) UniformWeights() Weights {
	return vec.Uniform(len(c.dims))
}

// flatStore returns the collection's shared corpus store (nil only while
// the collection is empty and has never loaded). Every layer — build,
// search, brute force, persistence — views this one store; incremental
// Adds append to it without invalidating outstanding views, so there is
// no untrusted-arena slow path anymore.
func (c *Collection) flatStore() *vec.FlatStore { return c.store }

// query converts and validates an external query against the collection
// layout. Like Add, it rejects non-finite coordinates: they would reach
// the kernels, whose results are only defined on finite inputs.
func (c *Collection) query(q Object) (vec.Multi, error) {
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

// WeightConfig configures LearnWeights; the zero value uses the paper's
// defaults (learning rate 0.002, 700 epochs, 10 hard negatives).
type WeightConfig struct {
	// LearningRate is the gradient-descent step size.
	LearningRate float64
	// Epochs is the number of training passes.
	Epochs int
	// Negatives is the number of negative examples per anchor |N−|.
	Negatives int
	// RandomNegatives disables hard-negative mining (used for ablation;
	// keep false for the paper's method).
	RandomNegatives bool
	// Seed fixes training randomness.
	Seed int64
}

// LearnWeights fits modality weights from training pairs: queries[i]'s
// true answer is the collection object positives[i]. The pool of true
// objects (the paper's T) is exactly the referenced objects.
func LearnWeights(c *Collection, queries []Object, positives []int, cfg WeightConfig) (Weights, error) {
	if len(queries) != len(positives) {
		return nil, fmt.Errorf("must: %d queries but %d positives", len(queries), len(positives))
	}
	anchors := make([]vec.Multi, len(queries))
	for i, q := range queries {
		mv, err := c.query(q)
		if err != nil {
			return nil, fmt.Errorf("must: training query %d: %w", i, err)
		}
		anchors[i] = mv
	}
	// Build the pool T and remap positives into it.
	poolIDs := make(map[int]int)
	var pool []vec.Multi
	remapped := make([]int, len(positives))
	for i, p := range positives {
		if p < 0 || p >= c.Len() {
			return nil, fmt.Errorf("must: positive %d of query %d out of range", p, i)
		}
		idx, ok := poolIDs[p]
		if !ok {
			idx = len(pool)
			poolIDs[p] = idx
			pool = append(pool, c.multi(p))
		}
		remapped[i] = idx
	}
	res, err := weights.Train(anchors, remapped, pool, weights.Config{
		LearningRate:  cfg.LearningRate,
		Epochs:        cfg.Epochs,
		NumNegatives:  cfg.Negatives,
		HardNegatives: !cfg.RandomNegatives,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return res.Weights, nil
}

// GraphAlgorithm selects the index-construction algorithm.
type GraphAlgorithm int

// Supported graph algorithms (§VIII-G). AlgoOurs is the paper's optimized
// component assembly and the default.
const (
	AlgoOurs GraphAlgorithm = iota
	AlgoKGraph
	AlgoNSG
	AlgoNSSG
	AlgoHNSW
	AlgoVamana
	AlgoHCNNG
)

// String names the algorithm.
func (a GraphAlgorithm) String() string {
	switch a {
	case AlgoOurs:
		return "Ours"
	case AlgoKGraph:
		return "KGraph"
	case AlgoNSG:
		return "NSG"
	case AlgoNSSG:
		return "NSSG"
	case AlgoHNSW:
		return "HNSW"
	case AlgoVamana:
		return "Vamana"
	case AlgoHCNNG:
		return "HCNNG"
	default:
		return fmt.Sprintf("GraphAlgorithm(%d)", int(a))
	}
}

// BuildOptions configures index construction; the zero value uses the
// paper's defaults (γ = 30, ε = 3, the "Ours" pipeline).
type BuildOptions struct {
	// Gamma is the maximum out-degree γ (Appendix H; default 30).
	Gamma int
	// Iterations is the NNDescent iteration cap ε (default 3).
	Iterations int
	// Algorithm selects the graph construction (default AlgoOurs).
	Algorithm GraphAlgorithm
	// Seed fixes construction randomness.
	Seed int64
}

// Index is a built fused index over a collection snapshot.
type Index struct {
	c   *Collection
	f   *index.Fused
	opt BuildOptions
	// dead marks tombstoned objects (§IX index updates): they keep
	// routing traffic — proximity graphs need them for connectivity — but
	// are never returned. A rebuild (Build on a compacted collection)
	// removes them for real.
	dead []bool
	// deadCount tracks the set bits of dead so Deleted (called on every
	// Engine.Len and by maintenance sampling) stays O(1).
	deadCount int
}

// Build constructs the fused proximity-graph index over the collection
// under the given weights.
func Build(c *Collection, w Weights, opts BuildOptions) (*Index, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("must: cannot index an empty collection")
	}
	if len(w) != c.Modalities() {
		return nil, fmt.Errorf("must: %d weights for %d modalities", len(w), c.Modalities())
	}
	if opts.Gamma == 0 {
		opts.Gamma = 30
	}
	if opts.Iterations == 0 {
		opts.Iterations = 3
	}
	wv := vec.Weights(w)
	// Build consumes the collection's shared store directly: the weighted
	// fused block is materialized only for the duration of construction
	// and released before Build returns, so the built system holds the
	// corpus exactly once.
	st := c.flatStore()
	var (
		f   *index.Fused
		err error
	)
	switch opts.Algorithm {
	case AlgoOurs:
		f, err = index.BuildFusedStore(st, wv, graph.Ours(opts.Gamma, opts.Iterations, opts.Seed))
	case AlgoKGraph:
		f, err = index.BuildFusedStore(st, wv, graph.KGraphAssembly(opts.Gamma, opts.Iterations, opts.Seed))
	case AlgoNSG:
		f, err = index.BuildFusedStore(st, wv, graph.NSGAssembly(opts.Gamma, opts.Iterations, 2*opts.Gamma, opts.Seed))
	case AlgoNSSG:
		f, err = index.BuildFusedStore(st, wv, graph.NSSGAssembly(opts.Gamma, opts.Iterations, opts.Seed))
	case AlgoHNSW:
		f, err = index.BuildFusedGraphStore(st, wv, "HNSW", func(s *graph.Space) *graph.Graph {
			return graph.BuildHNSW(s, graph.HNSWConfig{M: opts.Gamma / 2, EfConstruction: 4 * opts.Gamma, Seed: opts.Seed})
		})
	case AlgoVamana:
		f, err = index.BuildFusedGraphStore(st, wv, "Vamana", func(s *graph.Space) *graph.Graph {
			return graph.BuildVamana(s, graph.VamanaConfig{Gamma: opts.Gamma, Beam: 2 * opts.Gamma, Alpha: 1.2, Seed: opts.Seed})
		})
	case AlgoHCNNG:
		f, err = index.BuildFusedGraphStore(st, wv, "HCNNG", func(s *graph.Space) *graph.Graph {
			return graph.BuildHCNNG(s, graph.HCNNGConfig{Rounds: 3, LeafSize: 200, MaxDegree: opts.Gamma, Seed: opts.Seed})
		})
	default:
		return nil, fmt.Errorf("must: unknown graph algorithm %v", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	return &Index{c: c, f: f, opt: opts}, nil
}

// Match is one search result.
type Match struct {
	// ID is the collection object ID.
	ID int
	// Similarity is the joint similarity to the query under the weights
	// in effect.
	Similarity float32
}

// SearchOptions configures one search; the zero value means K=10,
// L=4·K, learned/index weights, Lemma 4 optimization on.
type SearchOptions struct {
	// K is the number of results (default 10).
	K int
	// L is the result-set size l of Algorithm 2 (default max(4K, 100));
	// larger L trades speed for recall (Tab. XII).
	L int
	// Weights optionally overrides the index weights at query time — the
	// user-defined weight preference of §VIII-F (Tab. IX). Must have one
	// weight per modality; a zero weight skips that modality (§VII-B).
	Weights Weights
	// DisableOptimization turns off the Lemma 4 partial-IP early
	// termination (used by the Fig. 10(c) ablation).
	DisableOptimization bool
	// Filter restricts results to objects it accepts — the hybrid
	// vector-plus-constraint query setting of §III. Rejected objects
	// still route; raise L when the filter is selective.
	Filter func(id int) bool
	// Patience enables adaptive early termination: stop routing after
	// this many consecutive non-improving hops (0 = full Algorithm 2).
	// Trades a little recall for latency.
	Patience int
}

// Search returns the approximate top-K objects for the multimodal query.
// A nil entry in the query marks a missing modality; pair it with a zero
// weight override (or rely on learned weights for present modalities).
func (ix *Index) Search(q Object, opts SearchOptions) ([]Match, error) {
	if opts.K == 0 {
		opts.K = 10
	}
	if opts.L == 0 {
		opts.L = 4 * opts.K
		if opts.L < 100 {
			opts.L = 100
		}
	}
	mv, err := ix.c.query(q)
	if err != nil {
		return nil, err
	}
	w := vec.Weights(ix.f.Weights)
	if opts.Weights != nil {
		if len(opts.Weights) != ix.c.Modalities() {
			return nil, fmt.Errorf("must: %d override weights for %d modalities", len(opts.Weights), ix.c.Modalities())
		}
		w = vec.Weights(opts.Weights)
	}
	// The searcher shares the index's flat store; everything per-call goes
	// through SearchParams.
	s := ix.f.NewSearcher()
	res, _, err := s.SearchParams(mv, search.Params{
		K:          opts.K,
		L:          opts.L,
		Weights:    w,
		Filter:     opts.Filter,
		Tombstones: ix.dead,
		Patience:   opts.Patience,
		Optimize:   !opts.DisableOptimization,
	})
	if err != nil {
		return nil, err
	}
	out := make([]Match, len(res))
	for i, r := range res {
		out[i] = Match{ID: r.ID, Similarity: r.IP}
	}
	return out, nil
}

// Weights returns the weights the index was built with.
func (ix *Index) Weights() Weights {
	return append(Weights(nil), ix.f.Weights...)
}

// Delete tombstones an object (§IX of the paper): it is excluded from all
// future results but keeps participating in graph routing, since removing
// vertices can disconnect a proximity graph. The object is physically
// dropped at the next rebuild. Delete is idempotent.
func (ix *Index) Delete(id int) error {
	n := ix.f.Graph.NumVertices()
	if id < 0 || id >= n {
		return fmt.Errorf("must: delete id %d out of range [0,%d)", id, n)
	}
	if len(ix.dead) < n {
		grown := make([]bool, n)
		copy(grown, ix.dead)
		ix.dead = grown
	}
	if !ix.dead[id] {
		ix.dead[id] = true
		ix.deadCount++
	}
	return nil
}

// Insert adds a new object to both the collection and the live index
// using incremental linking (§IX dynamic updates): the object searches
// for its own neighborhood and is wired in with MRNG-selected edges, the
// scheme HNSW and Vamana use. Periodic rebuilds (Build) remain advisable
// after many inserts and deletes, per the paper.
func (ix *Index) Insert(o Object) (int, error) {
	id, err := ix.c.Add(o)
	if err != nil {
		return 0, err
	}
	// The row is already in the shared store; the index just links it.
	if err := ix.f.Insert(id, ix.opt.Gamma, 0); err != nil {
		return 0, err
	}
	return id, nil
}

// Deleted reports how many objects are tombstoned. When this grows large
// relative to the collection, rebuild the index (the paper's periodic
// reconstruction, §IX).
func (ix *Index) Deleted() int {
	return ix.deadCount
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

// Stats reports index statistics.
func (ix *Index) Stats() Stats {
	raw := int64(0)
	quant := int64(0)
	if st := ix.f.Store; st != nil {
		raw = int64(st.Len()) * int64(st.RowDim()) * 4
		quant = st.QuantizedBytes()
	}
	edges := ix.f.Graph.NumEdges()
	var perEdge float64
	if edges > 0 {
		perEdge = float64(ix.f.SizeBytes()) / float64(edges)
	}
	objects := ix.f.Graph.NumVertices()
	overlay := ix.f.Graph.OverlayVertices()
	var overlayRatio, tombstoneRatio float64
	if objects > 0 {
		overlayRatio = float64(overlay) / float64(objects)
		tombstoneRatio = float64(ix.deadCount) / float64(objects)
	}
	return Stats{
		Objects:           objects,
		Edges:             edges,
		AvgDegree:         ix.f.Graph.AvgDegree(),
		SizeBytes:         ix.f.SizeBytes(),
		GraphBytesPerEdge: perEdge,
		CorpusBytes:       ix.f.CorpusBytes(),
		RawVectorBytes:    raw,
		FusedBytes:        ix.f.FusedBytes(),
		QuantizedBytes:    quant,
		OverlayVertices:   overlay,
		OverlayRatio:      overlayRatio,
		TombstoneRatio:    tombstoneRatio,
		KernelVariant:     vec.KernelName(),
		BuildTime:         int64(ix.f.BuildTime),
		Algorithm:         ix.f.Pipeline,
	}
}

// Save writes the index structure to a file; the collection itself is not
// stored (persist your vectors separately and pass the same collection to
// LoadIndex).
func (ix *Index) Save(path string) error { return ix.f.Save(path) }

// LoadIndex reads an index saved with Save and attaches it to the
// collection it was built over. Build options are not stored in the index
// file, so the loaded index assumes the paper defaults (γ=30, ε=3) for
// subsequent Insert linking; set them explicitly with SetBuildOptions if
// the index was built with different parameters.
func LoadIndex(path string, c *Collection) (*Index, error) {
	// The index attaches the collection's shared store directly — loaded
	// systems are single-copy from the first search, and subsequent
	// Collection.Add/Index.Insert appends extend the same store.
	f, err := index.Load(path, c.flatStore())
	if err != nil {
		return nil, err
	}
	opt := BuildOptions{Gamma: 30, Iterations: 3}
	return &Index{c: c, f: f, opt: opt}, nil
}

// SetBuildOptions overrides the build parameters a loaded index uses for
// incremental Insert linking (Gamma and Iterations default when zero).
func (ix *Index) SetBuildOptions(opts BuildOptions) {
	if opts.Gamma == 0 {
		opts.Gamma = 30
	}
	if opts.Iterations == 0 {
		opts.Iterations = 3
	}
	ix.opt = opts
}

// ExactSearch performs exhaustive exact retrieval (the paper's MUST--),
// useful for ground truth and for small collections.
func (c *Collection) ExactSearch(q Object, w Weights, k int) ([]Match, error) {
	mv, err := c.query(q)
	if err != nil {
		return nil, err
	}
	if len(w) != c.Modalities() {
		return nil, fmt.Errorf("must: %d weights for %d modalities", len(w), c.Modalities())
	}
	bf := &index.BruteForce{Store: c.flatStore(), Weights: vec.Weights(w)}
	res := bf.TopK(mv, k)
	out := make([]Match, len(res))
	for i, r := range res {
		out[i] = Match{ID: r.ID, Similarity: r.IP}
	}
	return out, nil
}
