package must

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"must/internal/index"
	"must/internal/search"
	"must/internal/vec"
)

// defaultWorkers caps a batch's default concurrency at GOMAXPROCS.
func defaultWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	return w
}

// ErrNotBuilt is returned by Engine operations that need a built index.
var ErrNotBuilt = errors.New("must: engine index not built (call Build first)")

// ErrUnknownID is wrapped by errors that reference an object ID the
// engine has never handed out (or has already compacted away). Match it
// with errors.Is; a ShardedEngine uses it to re-report shard-local
// failures under the caller's global ID.
var ErrUnknownID = errors.New("unknown object id")

// EngineOptions configures NewEngine; the zero value means uniform
// weights and the default build parameters (γ=30, ε=3, AlgoOurs).
type EngineOptions struct {
	// Weights are the initial per-modality weights ω in schema order;
	// nil means uniform. LearnWeights or SetWeights replace them later.
	Weights Weights
	// Build configures graph construction for Build and Rebuild.
	Build BuildOptions
}

// Engine is the library's entry point: a schema-typed, concurrency-safe
// multimodal search engine over one fused proximity graph.
//
// An Engine is safe for concurrent use: Search calls run in parallel with
// each other (each borrows a searcher from an internal pool), and Insert,
// Delete, SetWeights, and Rebuild may be called from other goroutines at
// any time. Mutations take a write lock, so they briefly block searches;
// Rebuild does its graph construction off-lock and only blocks to swap
// the new graph in.
//
// Object IDs handed out by Insert are stable for the lifetime of the
// Engine, across Rebuild compactions included.
type Engine struct {
	schema Schema
	byName map[string]int

	// rebuildMu serializes Build/Rebuild so two rebuilds cannot
	// interleave their snapshot/swap phases.
	rebuildMu sync.Mutex

	mu sync.RWMutex
	c  *collection
	f  *index.Fused // nil until Build
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
	nextID    int64
	searchers *sync.Pool // *search.Searcher over the current graph
	// epoch counts result-visible mutations (insert, delete, weight
	// change, build, rebuild). Serving layers key caches on it: any
	// mutation bumps it, invalidating every cached result at once.
	epoch uint64
	// quantize routes searches over the SQ8 shadow store (see
	// EnableQuantization); rerankK is the exact re-rank depth (0 = 4·k).
	quantize bool
	rerankK  int

	// adm gates the write path (see SetAdmission); its cached debt ratio
	// is refreshed under the write lock by updateDebtLocked.
	adm admission
}

// Epoch returns the engine's mutation epoch: a counter that increments
// on every change that can alter search results (Insert, Delete,
// SetWeights, LearnWeights, Build, Rebuild). Two searches issued at the
// same epoch with the same query return the same results, so the epoch
// is a correct cache-invalidation key for result caches above the
// engine.
func (e *Engine) Epoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// NewEngine creates an empty engine with the given schema. Schema[0] is
// the target modality.
func NewEngine(schema Schema, opts EngineOptions) (*Engine, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	sc := append(Schema(nil), schema...)
	w := opts.Weights
	if w == nil {
		w = vec.Uniform(len(sc))
	} else if len(w) != len(sc) {
		return nil, fmt.Errorf("must: %d weights for %d modalities", len(w), len(sc))
	}
	e := &Engine{
		schema:  sc,
		byName:  make(map[string]int, len(sc)),
		c:       &collection{dims: sc.Dims(), names: sc.Names()},
		weights: append(Weights(nil), w...),
		build:   opts.Build,
		lookup:  make(map[int64]int),
	}
	for i, m := range sc {
		e.byName[m.Name] = i
	}
	return e, nil
}

// Schema returns a copy of the engine's schema.
func (e *Engine) Schema() Schema { return append(Schema(nil), e.schema...) }

// positional converts named vectors to the schema's positional layout,
// requiring every modality to be present (corpus objects carry all
// modalities; only queries may omit some).
func (e *Engine) positional(v NamedVectors) (Object, error) {
	o := make(Object, len(e.schema))
	for name, emb := range v {
		i, ok := e.byName[name]
		if !ok {
			return nil, fmt.Errorf("must: unknown modality %q (schema has %v)", name, e.schema.Names())
		}
		o[i] = emb
	}
	for i, m := range e.schema {
		if o[i] == nil {
			return nil, fmt.Errorf("must: object missing modality %q (objects must carry every modality; only queries may omit)", m.Name)
		}
	}
	return o, nil
}

// Insert adds an object and returns its stable engine ID. Before Build it
// only accumulates into the collection; after Build it also links the
// object into the live graph incrementally (§IX dynamic updates).
func (e *Engine) Insert(v NamedVectors) (int64, error) {
	o, err := e.positional(v)
	if err != nil {
		return 0, err
	}
	return e.InsertObject(o)
}

// InsertObject is Insert with vectors already in schema order — the
// bulk-loading fast path that avoids building a map per object.
// Returns ErrOverloaded when admission control sheds the write.
func (e *Engine) InsertObject(o Object) (int64, error) {
	release, err := e.adm.admit(e.adm.debtRatio())
	if err != nil {
		return 0, err
	}
	defer release()
	e.mu.Lock()
	defer e.mu.Unlock()
	slot, err := e.c.Add(o)
	if err != nil {
		return 0, err
	}
	if e.f != nil {
		// The row is already in the shared store; the graph just links it
		// (§IX incremental insert).
		if err := e.f.Insert(slot, e.build.withDefaults().Gamma, 0); err != nil {
			return 0, err
		}
	}
	id := e.nextID
	e.nextID++
	e.ids = append(e.ids, id)
	e.lookup[id] = slot
	e.epoch++
	if e.f != nil {
		// Quantize the appended row before the searcher snapshot below;
		// no-op unless quantization is enabled and trained.
		e.c.store.SyncSQ8()
		// The graph and object slice grew; pooled searchers sized to the
		// old vertex count must not be reused.
		e.resetSearchersLocked()
		e.updateDebtLocked()
	}
	return id, nil
}

// Delete tombstones an object by engine ID (§IX): excluded from all
// future results, still routing until the next Rebuild. Requires a built
// index. Returns ErrOverloaded when admission control sheds the write.
func (e *Engine) Delete(id int64) error {
	release, err := e.adm.admit(e.adm.debtRatio())
	if err != nil {
		return err
	}
	defer release()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f == nil {
		return ErrNotBuilt
	}
	slot, ok := e.lookup[id]
	if !ok {
		return fmt.Errorf("must: %w %d", ErrUnknownID, id)
	}
	if markDead(&e.dead, e.f.Graph.NumVertices(), slot) {
		e.deadCount++
	}
	e.epoch++
	e.updateDebtLocked()
	return nil
}

// Len returns the number of live (non-tombstoned) objects.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.c.Len() - e.deadCount
}

// Deleted returns the number of tombstoned objects awaiting Rebuild.
func (e *Engine) Deleted() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.deadCount
}

// Object returns a copy of a stored object's vectors by modality name.
// Tombstoned objects are unknown: once deleted, an ID stays invisible
// here even though its row still routes until the next Rebuild.
func (e *Engine) Object(id int64) (NamedVectors, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	slot, ok := e.lookup[id]
	if !ok || (slot < len(e.dead) && e.dead[slot]) {
		return nil, fmt.Errorf("must: %w %d", ErrUnknownID, id)
	}
	out := make(NamedVectors, len(e.schema))
	for i, m := range e.schema {
		out[m.Name] = vec.Clone(e.c.store.Modality(slot, i))
	}
	return out, nil
}

// Weights returns the engine's current per-modality weights in schema
// order.
func (e *Engine) Weights() Weights {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append(Weights(nil), e.weights...)
}

// SetWeights replaces the engine's per-modality weights (schema order).
// New searches use them immediately for scoring; the graph keeps routing
// under the weights it was built with until the next Rebuild, which is
// exactly the user-defined-weights setting of §VIII-F and loses little
// recall (Tab. IX). Rebuild to re-optimize routing for the new weights.
func (e *Engine) SetWeights(w Weights) error {
	if len(w) != len(e.schema) {
		return fmt.Errorf("must: %d weights for %d modalities", len(w), len(e.schema))
	}
	for i, x := range w {
		if err := checkFinite([]float32{x}); err != nil {
			return fmt.Errorf("must: weight %d: %w", i, err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.weights = append(Weights(nil), w...)
	e.epoch++
	return nil
}

// LearnWeights fits modality weights from training pairs (§VI): the true
// answer of queries[i] is the object with engine ID positives[i]. The
// learned weights are stored on the engine and returned. Training runs on
// a snapshot, off-lock, so it can overlap serving.
func (e *Engine) LearnWeights(queries []NamedVectors, positives []int64, cfg WeightConfig) (Weights, error) {
	posQueries, err := e.trainingQueries(queries, positives)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	// The snapshot pins the store length: training reads rows through
	// zero-copy views off-lock, while concurrent Inserts only ever write
	// rows past the pinned length.
	snap := &collection{dims: e.c.dims}
	if e.c.store != nil {
		snap.store = e.c.store.Snapshot()
	}
	internal := make([]int, len(positives))
	for i, id := range positives {
		slot, ok := e.lookup[id]
		if !ok {
			e.mu.RUnlock()
			return nil, fmt.Errorf("must: positive %d: %w %d", i, ErrUnknownID, id)
		}
		internal[i] = slot
	}
	e.mu.RUnlock()
	w, err := learnWeights(snap, posQueries, internal, cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.weights = append(Weights(nil), w...)
	e.epoch++
	e.mu.Unlock()
	return w, nil
}

// trainingQueries validates LearnWeights' pairing and converts the named
// training queries to schema order; ShardedEngine.LearnWeights shares it.
func (e *Engine) trainingQueries(queries []NamedVectors, positives []int64) ([]Object, error) {
	if len(queries) != len(positives) {
		return nil, fmt.Errorf("must: %d queries but %d positives", len(queries), len(positives))
	}
	out := make([]Object, len(queries))
	for i, q := range queries {
		o := make(Object, len(e.schema))
		for name, v := range q {
			j, ok := e.byName[name]
			if !ok {
				return nil, fmt.Errorf("must: training query %d: unknown modality %q", i, name)
			}
			o[j] = v
		}
		out[i] = o
	}
	return out, nil
}

// EnableQuantization attaches an SQ8 scalar-quantized shadow store (1
// byte/dim, per-modality scales — see vec.SQ8Store) and routes all
// subsequent searches over it, with an exact float32 re-rank of the top
// rerankK candidates per query (0 means 4·k, clamped to the beam width).
// Memory cost is ~¼ of the float32 corpus on top of it; the scan itself
// touches 4× less memory, which is the point.
//
// Called before Build, the quantizer trains inside Build (after the graph
// seals, over the complete corpus). Called on a built engine, it trains
// immediately. Pre-build inserts are not quantized eagerly — scales
// trained on a partial corpus would be garbage — and rows inserted after
// training use the trained scales, clamping out-of-range values (the
// exact re-rank absorbs the extra error; Rebuild retrains from scratch).
func (e *Engine) EnableQuantization(rerankK int) error {
	if rerankK < 0 {
		return fmt.Errorf("must: negative rerank depth %d", rerankK)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rerankK = rerankK
	if e.quantize {
		return nil
	}
	e.quantize = true
	if st := e.c.store; st != nil {
		st.EnableSQ8()
		if e.f != nil {
			st.SyncSQ8()
			e.epoch++
			e.resetSearchersLocked()
		}
	}
	return nil
}

// Quantized reports whether searches route over the SQ8 shadow store.
func (e *Engine) Quantized() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.quantize
}

// Build constructs the fused index over everything inserted so far. It
// must be called once before Search; after that, use Rebuild to compact
// and re-optimize. Build holds the write lock for the duration.
func (e *Engine) Build() error {
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f != nil {
		return fmt.Errorf("must: engine already built; use Rebuild")
	}
	if e.quantize {
		// The store may not have existed when EnableQuantization ran (it
		// is created lazily on first insert); attach the shadow now so the
		// build trains the quantizer after sealing the graph.
		if st := e.c.store; st != nil {
			st.EnableSQ8()
		}
	}
	f, err := buildFused(e.c, e.weights, e.build)
	if err != nil {
		return err
	}
	e.f = f
	e.epoch++
	e.resetSearchersLocked()
	e.updateDebtLocked()
	return nil
}

// Rebuild reconstructs the graph from scratch: tombstoned objects are
// physically dropped (the paper's periodic reconstruction, §IX), the
// current engine weights become the build weights, and the new graph is
// swapped in atomically. Construction happens on a snapshot without
// blocking concurrent Search/Insert/Delete; inserts and deletes that land
// during construction are replayed before the swap. Engine IDs are
// preserved.
func (e *Engine) Rebuild() error {
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()

	e.mu.RLock()
	if e.f == nil {
		e.mu.RUnlock()
		return ErrNotBuilt
	}
	snapLen := e.c.Len()
	// Copy the tombstone bitset and ID prefix under the lock (Delete may
	// flip entries the moment it is released); the store itself only needs
	// a length-pinned snapshot — rows are immutable once appended, so the
	// O(n·dim) compaction copy below can run off-lock without blocking
	// concurrent Search/Insert/Delete. Deletes that land after this
	// snapshot are replayed from the live bitset before the swap.
	dead := append([]bool(nil), e.dead...)
	srcStore := e.c.store.Snapshot()
	idsSnap := append([]int64(nil), e.ids[:snapLen]...)
	w := append(Weights(nil), e.weights...)
	bo := e.build
	quant := e.quantize
	e.mu.RUnlock()

	alive := 0
	for i := 0; i < snapLen; i++ {
		if i < len(dead) && dead[i] {
			continue
		}
		alive++
	}
	if alive == 0 {
		return fmt.Errorf("must: rebuild would leave the engine empty (all %d objects deleted)", snapLen)
	}
	// Compact the live rows into a fresh store — the one real copy a
	// rebuild makes; the old store is dropped at the swap. Rows are
	// copied verbatim (already normalized), preserving bit-exact vectors.
	newC := &collection{dims: append([]int(nil), e.c.dims...), names: e.schema.Names(),
		store: vec.NewFlatStore(e.c.dims, alive)}
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

	e.mu.Lock()
	defer e.mu.Unlock()
	// Replay inserts that landed while the graph was building.
	gamma := bo.withDefaults().Gamma
	for i := snapLen; i < e.c.Len(); i++ {
		slot, err := newC.Add(Object(e.c.store.Multi(i)))
		if err == nil {
			err = newF.Insert(slot, gamma, 0)
		}
		if err != nil {
			return fmt.Errorf("must: rebuild replay of object %d: %w", e.ids[i], err)
		}
		aliveIDs = append(aliveIDs, e.ids[i])
	}
	newLookup := make(map[int64]int, len(aliveIDs))
	for slot, id := range aliveIDs {
		newLookup[id] = slot
	}
	// Replay deletes that landed while the graph was building (including
	// deletes of just-replayed inserts).
	var newDead []bool
	newDeadCount := 0
	for i, id := range e.ids {
		if i < len(e.dead) && e.dead[i] {
			if slot, ok := newLookup[id]; ok && markDead(&newDead, newF.Graph.NumVertices(), slot) {
				newDeadCount++
			}
		}
	}
	e.c = newC
	e.f = newF
	e.dead, e.deadCount = newDead, newDeadCount
	e.ids = aliveIDs
	e.lookup = newLookup
	// Quantize any rows replayed after the off-lock build trained the
	// shadow (no-op when quantization is off).
	e.c.store.SyncSQ8()
	e.epoch++
	e.resetSearchersLocked()
	e.updateDebtLocked()
	return nil
}

// SetAdmission installs (or, with the zero value, clears) write-path
// admission control: Insert/InsertObject/Delete past the in-flight
// budget or issued while maintenance debt exceeds the watermark fail
// fast with ErrOverloaded. Searches are never gated.
func (e *Engine) SetAdmission(o AdmissionOptions) error {
	return e.adm.configure(o)
}

// WritesShed returns how many writes admission control has refused.
func (e *Engine) WritesShed() uint64 { return e.adm.writesShed() }

// updateDebtLocked refreshes the admission gate's cached maintenance
// debt — max(overlay ratio, tombstone ratio) — so the write-path admit
// check stays a single atomic load. Callers must hold the write lock.
func (e *Engine) updateDebtLocked() {
	if e.f == nil {
		e.adm.setDebt(0)
		return
	}
	n := e.f.Graph.NumVertices()
	if n == 0 {
		e.adm.setDebt(0)
		return
	}
	debt := float64(e.f.Graph.OverlayVertices()) / float64(n)
	if t := float64(e.deadCount) / float64(n); t > debt {
		debt = t
	}
	e.adm.setDebt(debt)
}

// resetSearchersLocked replaces the searcher pool after any change to the
// graph topology or object slice. Callers must hold the write lock.
func (e *Engine) resetSearchersLocked() {
	f := e.f
	// Snapshot the shared store at the current length, under the write
	// lock: pooled searchers must not observe rows appended by later
	// Inserts (their visit buffers are sized to the vertex count at pool
	// creation; the pool is replaced after every mutation).
	store := f.Store.Snapshot()
	e.searchers = &sync.Pool{New: func() any {
		return search.NewFlat(f.Graph, store, f.Weights)
	}}
}

// convertLocked validates a query against the schema and produces the
// positional multi-vector plus the effective per-modality weights.
// Callers must hold at least the read lock.
func (e *Engine) convertLocked(q Query) (vec.Multi, Weights, error) {
	pos := make(Object, len(e.schema))
	for name, v := range q.Vectors {
		i, ok := e.byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("must: query names unknown modality %q (schema has %v)", name, e.schema.Names())
		}
		pos[i] = v
	}
	mv, err := e.c.query(pos)
	if err != nil {
		return nil, nil, err
	}
	w := append(Weights(nil), e.weights...)
	for name, x := range q.Weights {
		i, ok := e.byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("must: weight override names unknown modality %q (schema has %v)", name, e.schema.Names())
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

// searchOneLocked answers one query on an already-borrowed searcher.
// Callers must hold at least the read lock and must have checked that
// the index is built. The returned Response owns its matches: every
// result row is cloned out of the searcher's reusable buffers before
// returning, so the Response stays valid after the searcher is reused
// or pooled.
func (e *Engine) searchOneLocked(ctx context.Context, s *search.Searcher, q Query) (*Response, error) {
	start := time.Now()
	k, l, err := q.size()
	if err != nil {
		return nil, err
	}
	mv, w, err := e.convertLocked(q)
	if err != nil {
		return nil, err
	}
	var filter func(int) bool
	if q.Filter != nil {
		ids := e.ids
		filter = func(slot int) bool { return q.Filter(ids[slot]) }
	}
	res, st, err := s.SearchParams(mv, search.Params{
		K:          k,
		L:          l,
		Weights:    vec.Weights(w),
		Filter:     filter,
		Tombstones: e.dead,
		Patience:   q.Patience,
		Optimize:   !q.DisableOptimization,
		Breakdown:  true,
		Quantized:  e.quantize,
		RerankK:    e.rerankK,
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
		by := make(map[string]float32, len(e.schema))
		for j, m := range e.schema {
			if j < len(r.PerModality) {
				by[m.Name] = r.PerModality[j]
			}
		}
		matches[i] = ScoredMatch{ID: e.ids[r.ID], Similarity: r.IP, ByModality: by}
	}
	return &Response{
		Matches: matches,
		Stats:   SearchStats{FullEvals: st.FullEvals, PartialSkips: st.PartialSkips, Hops: st.Hops},
		Latency: time.Since(start),
	}, nil
}

// Search answers one typed query. It is safe to call from any number of
// goroutines; ctx cancels or time-bounds the routing loop. Results carry
// per-modality similarity breakdowns and routing statistics.
func (e *Engine) Search(ctx context.Context, q Query) (*Response, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.f == nil {
		return nil, ErrNotBuilt
	}
	pool := e.searchers
	s := pool.Get().(*search.Searcher)
	resp, err := e.searchOneLocked(ctx, s, q)
	pool.Put(s)
	return resp, err
}

// SearchEach answers many queries concurrently and reports a result or
// an error per query: out[i] and errs[i] describe queries[i], exactly
// one of them non-nil. Unlike SearchBatch, one failed or cancelled
// query never poisons the rest of the batch — every other query still
// runs to completion and keeps its result.
//
// This is the serving-tier entry point: each worker borrows one pooled
// searcher for its whole stride (amortizing pool traffic across the
// batch), the read lock is taken once for the batch, and every response
// is cloned out of searcher-owned buffers before return. workers ≤ 0
// uses one worker per query up to GOMAXPROCS.
func (e *Engine) SearchEach(ctx context.Context, queries []Query, workers int) ([]*Response, []error) {
	if len(queries) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = defaultWorkers(len(queries))
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	out := make([]*Response, len(queries))
	errs := make([]error, len(queries))
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.f == nil {
		for i := range errs {
			errs[i] = ErrNotBuilt
		}
		return out, errs
	}
	pool := e.searchers
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			defer wg.Done()
			s := pool.Get().(*search.Searcher)
			for i := wk; i < len(queries); i += workers {
				out[i], errs[i] = e.searchOneRecovered(ctx, &s, pool, queries[i])
			}
			if s != nil {
				pool.Put(s)
			}
		}(wk)
	}
	wg.Wait()
	return out, errs
}

// errSearchPanicked marks errors produced by recovering a search
// panic. The sharded fan-out uses it to tell shard sickness (panics
// feed the health breaker) from ordinary per-query errors (validation
// failures, which say nothing about shard health).
var errSearchPanicked = errors.New("must: search panicked")

// searchOneRecovered runs one query, converting a panic (e.g. from a
// user-supplied Query.Filter) into that query's error instead of
// killing the process. The panicked searcher's internal state is
// suspect, so it is dropped on the floor and the worker continues with
// a fresh one from the pool; *sp is nil transiently while swapping.
func (e *Engine) searchOneRecovered(ctx context.Context, sp **search.Searcher, pool *sync.Pool, q Query) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("%w: %v", errSearchPanicked, r)
			*sp = pool.Get().(*search.Searcher)
		}
	}()
	return e.searchOneLocked(ctx, *sp, q)
}

// ExactSearch answers one typed query by exhaustive scan (the paper's
// MUST--): exact results for ground truth or small corpora. Unlike
// Search it works before Build; tombstones and Query.Filter are
// honored, Patience/L/DisableOptimization are ignored.
func (e *Engine) ExactSearch(ctx context.Context, q Query) (*Response, error) {
	start := time.Now()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("must: %w", err)
		}
	}
	k, _, err := q.size()
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	mv, w, err := e.convertLocked(q)
	if err != nil {
		return nil, err
	}
	dead := e.dead
	ids := e.ids
	// evals counts the objects actually scored; TopKFiltered calls keep
	// sequentially, so a plain counter is safe.
	evals := 0
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
	bf := &index.BruteForce{Store: e.c.store, Weights: vec.Weights(w)}
	res := bf.TopKFiltered(mv, k, keep)
	matches := make([]ScoredMatch, len(res))
	for i, r := range res {
		per := search.Breakdown(vec.Weights(w), mv, e.c.store.Multi(r.ID))
		by := make(map[string]float32, len(e.schema))
		for j, m := range e.schema {
			by[m.Name] = per[j]
		}
		matches[i] = ScoredMatch{ID: ids[r.ID], Similarity: r.IP, ByModality: by}
	}
	return &Response{
		Matches: matches,
		Stats:   SearchStats{FullEvals: evals},
		Latency: time.Since(start),
	}, nil
}

// SearchBatch answers many queries concurrently and returns responses
// aligned with the queries slice. workers ≤ 0 uses one worker per query
// up to GOMAXPROCS. Any query error fails the whole call with the
// first (lowest-index) error; use SearchEach when partial results and
// per-query errors are wanted instead.
func (e *Engine) SearchBatch(ctx context.Context, queries []Query, workers int) ([]*Response, error) {
	out, errs := e.SearchEach(ctx, queries, workers)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("must: batch query %d: %w", i, err)
		}
	}
	return out, nil
}

// Stats reports statistics of the engine's current index.
func (e *Engine) Stats() (Stats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.f == nil {
		return Stats{}, ErrNotBuilt
	}
	f := e.f
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
		tombstoneRatio = float64(e.deadCount) / float64(objects)
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
