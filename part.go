package must

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"must/internal/index"
	"must/internal/search"
	"must/internal/shard"
	"must/internal/vec"
)

// part is one shard of an Engine: a collection, the fused proximity graph
// over it, its tombstones and its IDs. Every Engine operation that touches
// vectors runs on one part under that part's two locks; the Engine only
// routes, gates, orchestrates builds and merges.
type part struct {
	// schema and byName are the engine's, shared read-only.
	schema Schema
	byName map[string]int
	// j and n place the part among the engine's n parts: the IDs it
	// hands out are local·n + j (shard.Global), which is what lets the
	// engine route an ID to its part with no table.
	j, n int

	// buildMu serializes graph construction of the part — Build, Rebuild,
	// RebuildShard and the lazy build on insert — so two constructions
	// cannot interleave their snapshot and swap phases. state is written
	// only under it (and read lock-free).
	buildMu sync.Mutex
	state   atomic.Uint32
	// debt caches max(overlay ratio, tombstone ratio) as float64 bits,
	// refreshed under mu by updateDebtLocked, so write admission costs
	// one atomic load per part.
	debt atomic.Uint64

	mu sync.RWMutex
	c  *collection
	f  *index.Fused // nil until built
	// dead marks tombstoned slots (§IX index updates): they keep routing
	// traffic — proximity graphs need them for connectivity — but are never
	// returned. Rebuild drops them for real. deadCount tracks the set bits
	// so Deleted (called on every Len and by maintenance sampling) is O(1).
	dead      []bool
	deadCount int
	weights   Weights
	// build is kept as given (zero fields included) so snapshots record it
	// verbatim; withDefaults resolves it where it is used.
	build     BuildOptions
	ids       []int64       // ids[internal slot] = engine ID
	lookup    map[int64]int // engine ID -> internal slot
	nextID    int64         // local counter: the next insert gets ID nextID·n + j
	searchers *sync.Pool    // *search.Searcher over the current graph
	// epoch counts result-visible mutations of the part (insert, delete,
	// weight change, build, rebuild); the engine's epoch is their sum.
	epoch uint64
	// quantize routes searches over the SQ8 shadow store (see
	// EnableQuantization); rerankK is the exact re-rank depth (0 = 4·k).
	quantize bool
	rerankK  int
}

func newPart(sc Schema, w Weights, bo BuildOptions) *part {
	return &part{
		schema:  sc,
		c:       &collection{dims: sc.Dims(), names: sc.Names()},
		weights: append(Weights(nil), w...),
		build:   bo,
		lookup:  make(map[int64]int),
	}
}

func unknownID(id int64) error { return fmt.Errorf("must: %w %d", ErrUnknownID, id) }

func (p *part) State() ShardState { return ShardState(p.state.Load()) }

// Len returns the part's live (non-tombstoned) object count.
func (p *part) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.c.Len() - p.deadCount
}

func (p *part) Deleted() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.deadCount
}

func (p *part) Epoch() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.epoch
}

func (p *part) insert(o Object) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot, err := p.c.Add(o)
	if err != nil {
		return 0, err
	}
	if p.f != nil {
		// The row is already in the shared store; the graph just links it
		// (§IX incremental insert).
		if err := p.f.Insert(slot, p.build.withDefaults().Gamma, 0); err != nil {
			return 0, err
		}
	}
	id := shard.Global(p.j, p.nextID, p.n)
	p.nextID++
	p.ids = append(p.ids, id)
	p.lookup[id] = slot
	p.epoch++
	if p.f != nil {
		// Quantize the appended row before the searcher snapshot below;
		// no-op unless quantization is enabled and trained.
		p.c.store.SyncSQ8()
		// The graph and object slice grew; pooled searchers sized to the
		// old vertex count must not be reused.
		p.resetSearchersLocked()
		p.updateDebtLocked()
	}
	return id, nil
}

// delete tombstones id. An unbuilt part of a built engine holds no
// object a caller could name, so its IDs are unknown too.
func (p *part) delete(id int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot, ok := p.lookup[id]
	if !ok || p.f == nil {
		return unknownID(id)
	}
	if markDead(&p.dead, p.f.Graph.NumVertices(), slot) {
		p.deadCount++
	}
	p.epoch++
	p.updateDebtLocked()
	return nil
}

// liveSlot returns id's slot, or false when id is unknown or tombstoned.
// Callers must hold at least the read lock.
func (p *part) liveSlot(id int64) (int, bool) {
	slot, ok := p.lookup[id]
	if !ok || (slot < len(p.dead) && p.dead[slot]) {
		return 0, false
	}
	return slot, true
}

func (p *part) object(id int64) (NamedVectors, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	slot, ok := p.liveSlot(id)
	if !ok {
		return nil, unknownID(id)
	}
	out := make(NamedVectors, len(p.schema))
	for i, m := range p.schema {
		out[m.Name] = vec.Clone(p.c.store.Modality(slot, i))
	}
	return out, nil
}

// liveRow returns a view of live object id's stored (normalized) vectors;
// stored rows never change, so the view stays valid off-lock.
func (p *part) liveRow(id int64) (vec.Multi, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	slot, ok := p.liveSlot(id)
	if !ok {
		return nil, false
	}
	return p.c.store.Multi(slot), true
}

func (p *part) Weights() Weights {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append(Weights(nil), p.weights...)
}

func (p *part) setWeights(w Weights) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.weights = append(Weights(nil), w...)
	p.epoch++
}

func (p *part) enableQuantization(rerankK int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rerankK = rerankK
	if p.quantize {
		return
	}
	p.quantize = true
	if st := p.c.store; st != nil {
		st.EnableSQ8()
		if p.f != nil {
			st.SyncSQ8()
			p.epoch++
			p.resetSearchersLocked()
		}
	}
}

func (p *part) quantized() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.quantize
}

// buildGraph constructs the part's first graph, holding the write lock
// for the duration. Callers hold buildMu.
func (p *part) buildGraph() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.quantize {
		// The store may not have existed when EnableQuantization ran (it
		// is created lazily on first insert); attach the shadow now so the
		// build trains the quantizer after sealing the graph.
		if st := p.c.store; st != nil {
			st.EnableSQ8()
		}
	}
	f, err := buildFused(p.c, p.weights, p.build)
	if err != nil {
		return err
	}
	p.f = f
	p.epoch++
	p.resetSearchersLocked()
	p.updateDebtLocked()
	return nil
}

// rebuild reconstructs the part's graph from scratch: tombstoned objects
// are physically dropped (the paper's periodic reconstruction, §IX), the
// current weights become the build weights, and the new graph is swapped
// in atomically. Construction happens on a snapshot without blocking
// concurrent Search/Insert/Delete; inserts and deletes that land during
// construction are replayed before the swap. IDs are preserved. Callers
// hold buildMu.
func (p *part) rebuild() error {
	p.mu.RLock()
	snapLen := p.c.Len()
	// Copy the tombstone bitset and ID prefix under the lock (Delete may
	// flip entries the moment it is released); the store itself only needs
	// a length-pinned snapshot — rows are immutable once appended, so the
	// O(n·dim) compaction copy below can run off-lock without blocking
	// concurrent Search/Insert/Delete. Deletes that land after this
	// snapshot are replayed from the live bitset before the swap.
	dead := append([]bool(nil), p.dead...)
	srcStore := p.c.store.Snapshot()
	idsSnap := append([]int64(nil), p.ids[:snapLen]...)
	w := append(Weights(nil), p.weights...)
	bo := p.build
	quant := p.quantize
	p.mu.RUnlock()

	alive := 0
	for i := 0; i < snapLen; i++ {
		if i < len(dead) && dead[i] {
			continue
		}
		alive++
	}
	if alive == 0 {
		// A delete landed after buildShard saw a live object.
		return fmt.Errorf("must: rebuild would leave shard %d empty (all %d objects deleted)", p.j, snapLen)
	}
	// Compact the live rows into a fresh store — the one real copy a
	// rebuild makes; the old store is dropped at the swap. Rows are
	// copied verbatim (already normalized), preserving bit-exact vectors.
	newC := &collection{dims: append([]int(nil), p.c.dims...), names: p.schema.Names(),
		store: vec.NewFlatStore(p.c.dims, alive)}
	if quant {
		// Fresh store, fresh shadow: buildFused below retrains the quantizer
		// over the compacted corpus, shedding any drift from clamped
		// post-training inserts.
		newC.store.EnableSQ8()
	}
	aliveIDs := make([]int64, 0, alive)
	for i := 0; i < snapLen; i++ {
		if i < len(dead) && dead[i] {
			continue
		}
		copy(newC.store.AppendRow(), srcStore.Row(i))
		aliveIDs = append(aliveIDs, idsSnap[i])
	}

	newF, err := buildFused(newC, w, bo)
	if err != nil {
		return err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	// Replay inserts that landed while the graph was building.
	gamma := bo.withDefaults().Gamma
	for i := snapLen; i < p.c.Len(); i++ {
		slot, err := newC.Add(Object(p.c.store.Multi(i)))
		if err == nil {
			err = newF.Insert(slot, gamma, 0)
		}
		if err != nil {
			return fmt.Errorf("must: rebuild replay of object %d: %w", p.ids[i], err)
		}
		aliveIDs = append(aliveIDs, p.ids[i])
	}
	newLookup := make(map[int64]int, len(aliveIDs))
	for slot, id := range aliveIDs {
		newLookup[id] = slot
	}
	// Replay deletes that landed while the graph was building (including
	// deletes of just-replayed inserts).
	var newDead []bool
	newDeadCount := 0
	for i, id := range p.ids {
		if i < len(p.dead) && p.dead[i] {
			if slot, ok := newLookup[id]; ok && markDead(&newDead, newF.Graph.NumVertices(), slot) {
				newDeadCount++
			}
		}
	}
	p.c = newC
	p.f = newF
	p.dead, p.deadCount = newDead, newDeadCount
	p.ids = aliveIDs
	p.lookup = newLookup
	// Quantize any rows replayed after the off-lock build trained the
	// shadow (no-op when quantization is off).
	p.c.store.SyncSQ8()
	p.epoch++
	p.resetSearchersLocked()
	p.updateDebtLocked()
	return nil
}

// updateDebtLocked refreshes the cached maintenance debt — max(overlay
// ratio, tombstone ratio) — that write admission reads. Callers must hold
// the write lock.
func (p *part) updateDebtLocked() {
	var debt float64
	if p.f != nil {
		if n := p.f.Graph.NumVertices(); n > 0 {
			debt = max(float64(p.f.Graph.OverlayVertices())/float64(n), float64(p.deadCount)/float64(n))
		}
	}
	p.debt.Store(math.Float64bits(debt))
}

func (p *part) debtRatio() float64 { return math.Float64frombits(p.debt.Load()) }

// resetSearchersLocked replaces the searcher pool after any change to the
// graph topology or object slice. Callers must hold the write lock.
func (p *part) resetSearchersLocked() {
	f := p.f
	// Snapshot the shared store at the current length, under the write
	// lock: pooled searchers must not observe rows appended by later
	// Inserts (their visit buffers are sized to the vertex count at pool
	// creation; the pool is replaced after every mutation).
	store := f.Store.Snapshot()
	p.searchers = &sync.Pool{New: func() any {
		return search.NewFlat(f.Graph, store, f.Weights)
	}}
}

// convertLocked validates a query against the schema and produces the
// positional multi-vector plus the effective per-modality weights.
// Callers must hold at least the read lock.
func (p *part) convertLocked(q Query) (vec.Multi, Weights, error) {
	pos := make(Object, len(p.schema))
	for name, v := range q.Vectors {
		i, ok := p.byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("must: query names unknown modality %q (schema has %v)", name, p.schema.Names())
		}
		pos[i] = v
	}
	mv, err := p.c.query(pos)
	if err != nil {
		return nil, nil, err
	}
	w := append(Weights(nil), p.weights...)
	for name, x := range q.Weights {
		i, ok := p.byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("must: weight override names unknown modality %q (schema has %v)", name, p.schema.Names())
		}
		if err := checkFinite([]float32{x}); err != nil {
			return nil, nil, fmt.Errorf("must: weight override for %q: %w", name, err)
		}
		w[i] = x
	}
	active := false
	for i := range w {
		if pos[i] == nil {
			// Missing query modality: force ω_i = 0 (§VII-B) so it
			// neither scores nor steers routing.
			w[i] = 0
		}
		if w[i] != 0 {
			active = true
		}
	}
	if !active {
		return nil, nil, fmt.Errorf("must: query has no active modalities (every modality is missing or zero-weighted)")
	}
	return mv, w, nil
}

// byModality names a per-modality score breakdown in schema order.
func (p *part) byModality(per []float32) map[string]float32 {
	by := make(map[string]float32, len(p.schema))
	for j, m := range p.schema {
		if j < len(per) {
			by[m.Name] = per[j]
		}
	}
	return by
}

// searchOneLocked answers one query on an already-borrowed searcher.
// Callers must hold at least the read lock and must have checked that
// the part is built. The returned Response owns its matches: every result
// row is cloned out of the searcher's reusable buffers before returning,
// so the Response stays valid after the searcher is reused or pooled.
func (p *part) searchOneLocked(ctx context.Context, s *search.Searcher, q Query) (*Response, error) {
	start := time.Now()
	k, l, err := q.size()
	if err != nil {
		return nil, err
	}
	mv, w, err := p.convertLocked(q)
	if err != nil {
		return nil, err
	}
	var filter func(int) bool
	if q.Filter != nil {
		ids := p.ids
		filter = func(slot int) bool { return q.Filter(ids[slot]) }
	}
	res, st, err := s.SearchParams(mv, search.Params{
		K:          k,
		L:          l,
		Weights:    vec.Weights(w),
		Filter:     filter,
		Tombstones: p.dead,
		Patience:   q.Patience,
		Optimize:   !q.DisableOptimization,
		Breakdown:  true,
		Quantized:  p.quantize,
		RerankK:    p.rerankK,
		Ctx:        ctx,
	})
	if err != nil {
		return nil, err
	}
	// res aliases the searcher's reusable result buffer, so it must be
	// converted to ScoredMatches before the searcher serves another query
	// (a later search would overwrite it).
	matches := make([]ScoredMatch, len(res))
	for i, r := range res {
		matches[i] = ScoredMatch{ID: p.ids[r.ID], Similarity: r.IP, ByModality: p.byModality(r.PerModality)}
	}
	return &Response{
		Matches: matches,
		Stats:   SearchStats{FullEvals: st.FullEvals, PartialSkips: st.PartialSkips, Hops: st.Hops},
		Latency: time.Since(start),
	}, nil
}

// batchWorkers resolves a batch's worker count: workers ≤ 0 means
// GOMAXPROCS, and a batch never gets more workers than queries.
func batchWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// searchEach fills out[i]/errs[i] for every query under one read lock.
// Each of workers goroutines borrows one pooled searcher for its whole
// stride; a single worker runs on the calling goroutine.
func (p *part) searchEach(ctx context.Context, queries []Query, workers int, out []*Response, errs []error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.f == nil {
		for i := range errs {
			errs[i] = ErrNotBuilt
		}
		return
	}
	stride := batchWorkers(workers, len(queries))
	if stride == 1 {
		p.searchStride(ctx, queries, 0, 1, out, errs)
		return
	}
	var wg sync.WaitGroup
	wg.Add(stride)
	for wk := 0; wk < stride; wk++ {
		go func() {
			defer wg.Done()
			p.searchStride(ctx, queries, wk, stride, out, errs)
		}()
	}
	wg.Wait()
}

// searchStride answers queries wk, wk+stride, … on one pooled searcher.
// Callers hold the read lock.
func (p *part) searchStride(ctx context.Context, queries []Query, wk, stride int, out []*Response, errs []error) {
	pool := p.searchers
	s := pool.Get().(*search.Searcher)
	for i := wk; i < len(queries); i += stride {
		var panicked bool
		out[i], panicked, errs[i] = p.searchRecovered(ctx, s, queries[i])
		if panicked {
			// The panicked searcher's internal state is suspect: drop it on
			// the floor and continue with a fresh one.
			s = pool.Get().(*search.Searcher)
		}
	}
	pool.Put(s)
}

// searchRecovered runs one query, converting a panic (e.g. from a
// user-supplied Query.Filter) into that query's error instead of killing
// the process.
func (p *part) searchRecovered(ctx context.Context, s *search.Searcher, q Query) (resp *Response, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, panicked, err = nil, true, fmt.Errorf("must: search panicked: %v", r)
		}
	}()
	resp, err = p.searchOneLocked(ctx, s, q)
	return resp, false, err
}

// exactSearch scans the part exhaustively for q's top k, honoring
// tombstones and Query.Filter, and reports how many objects it scored.
// A panic (e.g. from Query.Filter) becomes the query's error, as in
// searchRecovered.
func (p *part) exactSearch(q Query, k int) (matches []ScoredMatch, evals int, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	defer func() {
		if r := recover(); r != nil {
			matches, evals, err = nil, 0, fmt.Errorf("must: exact search panicked: %v", r)
		}
	}()
	mv, w, err := p.convertLocked(q)
	if err != nil {
		return nil, 0, err
	}
	dead := p.dead
	ids := p.ids
	// evals counts the objects actually scored; TopKFiltered calls keep
	// sequentially, so a plain counter is safe.
	keep := func(slot int) bool {
		if slot < len(dead) && dead[slot] {
			return false
		}
		if q.Filter != nil && !q.Filter(ids[slot]) {
			return false
		}
		evals++
		return true
	}
	bf := &index.BruteForce{Store: p.c.store, Weights: vec.Weights(w)}
	res := bf.TopKFiltered(mv, k, keep)
	matches = make([]ScoredMatch, len(res))
	for i, r := range res {
		per := search.Breakdown(vec.Weights(w), mv, p.c.store.Multi(r.ID))
		matches[i] = ScoredMatch{ID: ids[r.ID], Similarity: r.IP, ByModality: p.byModality(per)}
	}
	return matches, evals, nil
}

// stats reports statistics of the part's current index.
func (p *part) stats() (Stats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	f := p.f
	if f == nil {
		return Stats{}, ErrNotBuilt
	}
	var raw, quant int64
	if st := f.Store; st != nil {
		raw = int64(st.Len()) * int64(st.RowDim()) * 4
		quant = st.QuantizedBytes()
	}
	edges := f.Graph.NumEdges()
	var perEdge float64
	if edges > 0 {
		perEdge = float64(f.SizeBytes()) / float64(edges)
	}
	objects := f.Graph.NumVertices()
	overlay := f.Graph.OverlayVertices()
	var overlayRatio, tombstoneRatio float64
	if objects > 0 {
		overlayRatio = float64(overlay) / float64(objects)
		tombstoneRatio = float64(p.deadCount) / float64(objects)
	}
	return Stats{
		Objects:           objects,
		Edges:             edges,
		AvgDegree:         f.Graph.AvgDegree(),
		SizeBytes:         f.SizeBytes(),
		GraphBytesPerEdge: perEdge,
		CorpusBytes:       f.CorpusBytes(),
		RawVectorBytes:    raw,
		FusedBytes:        f.FusedBytes(),
		QuantizedBytes:    quant,
		OverlayVertices:   overlay,
		OverlayRatio:      overlayRatio,
		TombstoneRatio:    tombstoneRatio,
		KernelVariant:     vec.KernelName(),
		BuildTime:         int64(f.BuildTime),
		Algorithm:         f.Pipeline,
	}, nil
}

// markDead tombstones slot in *dead, first growing the bitset to the n
// vertices of the graph, and reports whether slot was live before.
func markDead(dead *[]bool, n, slot int) bool {
	if len(*dead) < n {
		grown := make([]bool, n)
		copy(grown, *dead)
		*dead = grown
	}
	if (*dead)[slot] {
		return false
	}
	(*dead)[slot] = true
	return true
}
