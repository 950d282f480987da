// Package index assembles the fused proximity-graph index of §VII: the
// weighted-concatenation space, the component-pipeline build (Algorithm
// 1), brute-force exact search (the paper's MUST-- and MR-- baselines and
// the ground-truth generator), and index serialization.
package index

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"must/internal/graph"
	"must/internal/search"
	"must/internal/vec"
)

// Fused is a built fused index: the proximity graph over weighted
// concatenated vectors plus everything needed to search it.
//
// The corpus lives once, in Store — the same vec.FlatStore the owning
// collection packs objects into. Build materializes a transient fused
// (weighted-concatenation) buffer, constructs the graph over it, and
// releases it before returning, so a built index holds the vectors
// exactly once; incremental inserts and every searcher score against the
// shared store directly.
type Fused struct {
	// Graph is the proximity graph (vertices = object IDs).
	Graph *graph.Graph
	// Weights are the modality weights ω the index was built under.
	Weights vec.Weights
	// Store is the shared packed corpus (one row per object, shared with
	// the collection and every searcher; read-only here).
	Store *vec.FlatStore
	// BuildTime records wall-clock construction time (Fig. 7).
	BuildTime time.Duration
	// Pipeline describes how the graph was assembled.
	Pipeline string

	// space is the store-backed view incremental inserts route through.
	// Its fused buffer is released after construction; after that it
	// computes weighted similarities from Store rows on demand.
	space *graph.Space
	// route is the beam-search scratch Insert reuses; inserts are
	// serialized by the owner (the engine's write lock).
	route graph.RouteScratch
}

// BuildFusedStore constructs the fused index over the rows of the shared
// store with the given weights using pipeline p. The weighted fused
// buffer exists only for the duration of the build.
func BuildFusedStore(store *vec.FlatStore, w vec.Weights, p graph.Pipeline) (*Fused, error) {
	// Quantizer training rides the pipeline's after-seal hook so it runs
	// inside the build (and its timing) rather than lazily on first
	// search. buildOverStore's unconditional sync then no-ops.
	if store != nil && store.SQ8() != nil {
		prev := p.AfterSeal
		p.AfterSeal = func() {
			if prev != nil {
				prev()
			}
			store.SyncSQ8()
		}
	}
	return buildOverStore(store, w, p.Name, func(s *graph.Space) (*graph.Graph, error) {
		return p.Build(s)
	})
}

// BuildFusedGraphStore wraps an externally built graph (HNSW, Vamana,
// HCNNG) over the shared store into a Fused index so every §VIII-G
// competitor searches through the same joint-search machinery.
func BuildFusedGraphStore(store *vec.FlatStore, w vec.Weights, name string, build func(*graph.Space) *graph.Graph) (*Fused, error) {
	return buildOverStore(store, w, name, func(s *graph.Space) (*graph.Graph, error) {
		return build(s), nil
	})
}

func buildOverStore(store *vec.FlatStore, w vec.Weights, name string, build func(*graph.Space) (*graph.Graph, error)) (*Fused, error) {
	if store == nil || store.Len() == 0 {
		return nil, fmt.Errorf("index: no objects to index")
	}
	start := time.Now()
	space := graph.NewFusedSpaceFromStore(store, w)
	g, err := build(space)
	if err != nil {
		return nil, err
	}
	// The weighted fused block was only needed to build the graph; from
	// here on the store is the single corpus copy.
	space.Release()
	// Non-pipeline builders (HNSW/Vamana/HCNNG graph funcs) have no
	// after-seal hook; make sure an enabled SQ8 shadow is trained before
	// the index is handed out. No-op when disabled or already synced.
	store.SyncSQ8()
	return &Fused{
		Graph:     g,
		Weights:   w.Clone(),
		Store:     store,
		BuildTime: time.Since(start),
		Pipeline:  name,
		space:     space,
	}, nil
}

// NewSearcher returns a fresh single-goroutine searcher over the index.
// All searchers share the index's flat store, so creating one costs only
// its visit buffers.
func (f *Fused) NewSearcher() *search.Searcher {
	return search.NewFlat(f.Graph, f.Store, f.Weights)
}

// SizeBytes reports the index size (graph memory only, matching how the
// paper reports index size separately from the vector data).
func (f *Fused) SizeBytes() int64 { return f.Graph.SizeBytes() }

// CorpusBytes reports the bytes committed to the shared vector store —
// the single resident copy of the corpus.
func (f *Fused) CorpusBytes() int64 {
	if f.Store == nil {
		return 0
	}
	return f.Store.MemoryBytes()
}

// FusedBytes reports the bytes of the transient weighted-concatenation
// buffer. It is 0 for any index returned by the Build functions (the
// buffer is released before they return); a non-zero value can only be
// observed mid-build.
func (f *Fused) FusedBytes() int64 {
	if f.space == nil {
		return 0
	}
	return f.space.FusedBytes()
}

// Insert incrementally links store row id into the graph (§IX dynamic
// updates): the row must already have been appended to the shared store
// by the owning collection, and must be the next unlinked vertex. Its
// weighted concatenation beam-searches for its neighborhood and links
// with MRNG selection plus degree-capped reverse edges. gamma and beam
// default to 30 and 4·gamma when non-positive. Searchers created before
// the insert do not see the new object; create them after.
func (f *Fused) Insert(id, gamma, beam int) error {
	if f.Store == nil {
		return fmt.Errorf("index: cannot insert into an index with no store")
	}
	if id != f.Graph.NumVertices() {
		return fmt.Errorf("index: insert id %d is not the next vertex (graph has %d)", id, f.Graph.NumVertices())
	}
	if id >= f.Store.Len() {
		return fmt.Errorf("index: insert id %d not yet in the store (%d rows)", id, f.Store.Len())
	}
	if gamma <= 0 {
		gamma = 30
	}
	if beam <= 0 {
		beam = 4 * gamma
	}
	if f.space == nil {
		// Deserialized index: attach a lazy view over the shared store —
		// no fused buffer is ever materialized for inserts.
		f.space = graph.StoreView(f.Store, f.Weights)
	}
	graph.Insert(f.space, f.Graph, int32(id), gamma, beam, &f.route)
	// Fold the append-overlay back into the frozen CSR core once it
	// covers more than a quarter of the graph: inserts stay O(1)
	// amortized, and steady state always returns to the flat form.
	if ov := f.Graph.OverlayVertices(); ov*4 > f.Graph.NumVertices() {
		f.Graph.Compact()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Brute force (MUST-- / MR-- and ground-truth generation).

// BruteForce performs exact top-k retrieval by scanning all objects — the
// paper's "--" baselines (§VIII-D) and the ground-truth oracle for the
// feature datasets. It scores every row of Store through the same fused
// row kernel the graph search uses (vec.FlatScanner.FullIP). A nil Store
// is an empty corpus.
type BruteForce struct {
	Store   *vec.FlatStore
	Weights vec.Weights
}

// TopK returns the exact top-k object IDs by joint similarity to query,
// best first.
func (b *BruteForce) TopK(query vec.Multi, k int) []search.Result {
	return b.topK(query, k, 1, nil)
}

// TopKFiltered is TopK restricted to objects accepted by keep (nil keeps
// everything) — the exact-retrieval counterpart of the hybrid
// vector-plus-constraint queries of §III, also used to exclude
// tombstoned objects from exact results.
func (b *BruteForce) TopKFiltered(query vec.Multi, k int, keep func(id int) bool) []search.Result {
	return b.topK(query, k, 1, keep)
}

// TopKParallel is TopK using all cores; used for bulk ground-truth
// computation, not for timing comparisons (the paper measures
// single-threaded search).
func (b *BruteForce) TopKParallel(query vec.Multi, k int) []search.Result {
	return b.topK(query, k, runtime.GOMAXPROCS(0), nil)
}

func (b *BruteForce) topK(query vec.Multi, k, workers int, keep func(id int) bool) []search.Result {
	if b.Store == nil || b.Store.Len() == 0 || k <= 0 {
		return nil
	}
	n := b.Store.Len()
	if k > n {
		k = n
	}
	flat := vec.NewFlatScanner(b.Store, b.Weights, query)
	// scan keeps the top k of rows [lo, hi); FullIP only reads the
	// scanner, so concurrent scans share it.
	scan := func(lo, hi int) []search.Result {
		local := make([]search.Result, 0, k+1)
		for i := lo; i < hi; i++ {
			if keep != nil && !keep(i) {
				continue
			}
			ip := flat.FullIP(b.Store.Row(i))
			if len(local) == k && ip <= local[len(local)-1].IP {
				continue
			}
			pos := sort.Search(len(local), func(j int) bool { return local[j].IP < ip })
			if len(local) < k {
				local = append(local, search.Result{})
			} else if pos >= k {
				continue
			}
			copy(local[pos+1:], local[pos:])
			local[pos] = search.Result{ID: i, IP: ip}
		}
		return local
	}
	workers = max(min(workers, n), 1)
	if workers == 1 {
		// Inline, on the caller's goroutine: a panic in keep reaches the
		// caller's recover instead of killing the process.
		return scan(0, n)
	}
	shards := make([][]search.Result, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (n + workers - 1) / workers
	for wi := 0; wi < workers; wi++ {
		go func(wi int) {
			defer wg.Done()
			shards[wi] = scan(wi*chunk, min((wi+1)*chunk, n))
		}(wi)
	}
	wg.Wait()
	merged := make([]search.Result, 0, workers*k)
	for _, res := range shards {
		merged = append(merged, res...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].IP != merged[j].IP {
			return merged[i].IP > merged[j].IP
		}
		return merged[i].ID < merged[j].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}
