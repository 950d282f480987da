package must

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"must/internal/graph"
	"must/internal/shard"
	"must/internal/vec"
	"must/internal/weights"
)

// ErrNotBuilt is returned by Engine operations that need a built index.
var ErrNotBuilt = errors.New("must: engine index not built (call Build first)")

// ErrUnknownID is wrapped by errors that reference an object ID the
// engine has never handed out (or has already compacted away, or that
// is tombstoned). Match it with errors.Is; the message names the ID the
// caller passed.
var ErrUnknownID = errors.New("unknown object id")

// EngineOptions configures NewEngine and NewShardedEngine; the zero value
// means uniform weights and the default build parameters (γ=30, ε=3,
// AlgoOurs).
type EngineOptions struct {
	// Weights are the initial per-modality weights ω in schema order;
	// nil means uniform. LearnWeights or SetWeights replace them later.
	Weights Weights
	// Build configures graph construction for Build and Rebuild.
	Build BuildOptions
}

// Engine is the library's entry point: a schema-typed, concurrency-safe
// multimodal search engine over S ≥ 1 shards, each one fused proximity
// graph over its part of the corpus. NewEngine makes one shard — the
// paper's single fused graph; NewShardedEngine partitions the corpus
// over S shards for parallel builds and fan-out search.
//
// An Engine is safe for concurrent use: Search calls run in parallel with
// each other (each borrows a searcher from a per-shard pool), and Insert,
// Delete, SetWeights, and Rebuild may be called from other goroutines at
// any time. A write takes only its own shard's write lock, so it briefly
// blocks searches of that shard; Rebuild constructs each shard's graph
// off-lock and only blocks to swap it in, one shard at a time.
//
// Object IDs are pure arithmetic over (shard j, local ID): global =
// local·S + j. Inserts are assigned round-robin, which yields the dense
// sequence 0,1,2,… for any S, and keeps shards within one object of
// balanced. IDs are stable for the lifetime of the engine, across Rebuild
// compactions included. S is fixed at creation (it is baked into every
// ID); pick it once, at most a small multiple of the core count.
//
// With more than one built shard, Search fans out and merges; with one,
// that shard answers inline.
type Engine struct {
	schema Schema
	byName map[string]int
	parts  []*part

	// rr is the round-robin insert cursor; rr mod S picks the next
	// shard. Atomic so Insert never takes an engine-wide lock.
	rr atomic.Uint64

	// buildMu serializes Build and Rebuild.
	buildMu sync.Mutex
	// mu makes the first Build atomic with respect to every other
	// operation, which holds it for reading. Rebuild deliberately does not
	// take it: shards rebuild under their own locks, so serving never
	// stalls.
	mu sync.RWMutex
	// built counts shards that have a graph. Zero means the engine is
	// not built (searches return ErrNotBuilt).
	built atomic.Int32

	// adm gates writes: one in-flight budget for the whole engine, with
	// debt read as the worst shard's ratio (see SetAdmission).
	adm admission
}

// ShardedEngine is Engine. The name is kept because callers written
// against the former two-type API (and the benchmark ladder) name it.
type ShardedEngine = Engine

// ShardState is the build-progress state of one shard.
type ShardState uint32

// Shard build-progress states, visible through ShardStats.
const (
	// ShardPending means the shard has no graph yet. Only empty shards
	// stay pending after a successful Build; the first Insert routed to a
	// pending shard builds it lazily.
	ShardPending ShardState = iota
	// ShardBuilding means a Build or Rebuild of the shard's graph is in
	// flight. During a Rebuild the shard keeps serving from its previous
	// graph.
	ShardBuilding
	// ShardBuilt means the shard has a live graph.
	ShardBuilt
)

func (s ShardState) String() string {
	switch s {
	case ShardPending:
		return "pending"
	case ShardBuilding:
		return "building"
	case ShardBuilt:
		return "built"
	}
	return fmt.Sprintf("ShardState(%d)", uint32(s))
}

// ShardInfo is one shard's slice of Engine.ShardStats.
type ShardInfo struct {
	// State is the shard's build-progress state ("pending", "building",
	// "built").
	State string `json:"state"`
	// Objects is the shard's live object count (tombstones excluded).
	Objects int `json:"objects"`
	// Deleted is the shard's tombstone count.
	Deleted int `json:"deleted"`
	// Epoch is the shard's own mutation epoch. The engine-level Epoch is
	// the sum of these, so any single-shard mutation changes the
	// engine-level value — per-shard writes stay per-shard, but caches
	// keyed on the summed epoch still invalidate correctly.
	Epoch uint64 `json:"epoch"`
	// Stats is the shard's index statistics; zero until the shard is
	// built.
	Stats Stats `json:"stats"`
}

// NewEngine creates an empty one-shard engine with the given schema.
// Schema[0] is the target modality.
func NewEngine(schema Schema, opts EngineOptions) (*Engine, error) {
	return NewShardedEngine(schema, 1, opts)
}

// NewShardedEngine creates an empty engine with the given schema and
// shard count. shards must be in [1, 4096]; every shard applies the same
// EngineOptions. Schema[0] is the target modality.
func NewShardedEngine(schema Schema, shards int, opts EngineOptions) (*Engine, error) {
	if err := shard.Validate(shards); err != nil {
		return nil, fmt.Errorf("must: %w", err)
	}
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
	parts := make([]*part, shards)
	for j := range parts {
		parts[j] = newPart(sc, w, opts.Build)
	}
	return assemble(sc, parts, 0), nil
}

// assemble wires parts into an engine — for a new engine and for one read
// from a snapshot alike: it shares the schema, places each part, and
// counts the parts that already have a graph.
func assemble(sc Schema, parts []*part, rr uint64) *Engine {
	e := &Engine{schema: sc, byName: make(map[string]int, len(sc)), parts: parts}
	for i, m := range sc {
		e.byName[m.Name] = i
	}
	for j, p := range parts {
		p.schema, p.byName, p.j, p.n = sc, e.byName, j, len(parts)
		if p.f != nil {
			p.state.Store(uint32(ShardBuilt))
			e.built.Add(1)
		}
	}
	e.rr.Store(rr)
	return e
}

// Schema returns a copy of the engine's schema.
func (e *Engine) Schema() Schema { return append(Schema(nil), e.schema...) }

// ShardCount returns the number of shards S.
func (e *Engine) ShardCount() int { return len(e.parts) }

// Epoch returns the engine's mutation epoch: the sum of the per-shard
// counters, each of which increments on every change that can alter
// search results (Insert, Delete, SetWeights, LearnWeights, Build,
// Rebuild). Two searches issued at the same epoch with the same query
// return the same results, so the epoch is a correct cache-invalidation
// key for result caches above the engine.
func (e *Engine) Epoch() uint64 {
	var sum uint64
	for _, p := range e.parts {
		sum += p.Epoch()
	}
	return sum
}

// Len returns the number of live (non-tombstoned) objects.
func (e *Engine) Len() int {
	n := 0
	for _, p := range e.parts {
		n += p.Len()
	}
	return n
}

// Deleted returns the number of tombstoned objects awaiting Rebuild.
func (e *Engine) Deleted() int {
	n := 0
	for _, p := range e.parts {
		n += p.Deleted()
	}
	return n
}

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
// only accumulates; after Build it also links the object into its shard's
// live graph incrementally (§IX dynamic updates).
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
//
// If the engine is built and the object lands in a shard that is still
// pending (a shard can only be pending while empty), the shard's graph is
// built on the spot so the object becomes searchable: post-Build inserts
// are immediately visible. In the vanishingly unlikely case that this
// lazy build fails, the object is stored, the error is returned, and the
// next insert into the shard retries the build.
func (e *Engine) InsertObject(o Object) (int64, error) {
	release, err := e.adm.admit(e.debtRatio())
	if err != nil {
		return 0, err
	}
	defer release()
	e.mu.RLock()
	defer e.mu.RUnlock()
	j := int((e.rr.Add(1) - 1) % uint64(len(e.parts)))
	id, err := e.parts[j].insert(o)
	if err != nil {
		return 0, err
	}
	if e.built.Load() > 0 && e.parts[j].State() == ShardPending {
		if err := e.buildShard(j, false); err != nil {
			return id, fmt.Errorf("must: shard %d lazy build: %w", j, err)
		}
	}
	return id, nil
}

// owner routes an engine ID to the shard that holds it.
func (e *Engine) owner(id int64) (*part, error) {
	if id < 0 {
		return nil, unknownID(id)
	}
	j, _ := shard.Split(id, len(e.parts))
	return e.parts[j], nil
}

// Delete tombstones an object by engine ID (§IX): excluded from all
// future results, still routing until the next Rebuild. Requires a built
// index. Returns ErrOverloaded when admission control sheds the write.
func (e *Engine) Delete(id int64) error {
	release, err := e.adm.admit(e.debtRatio())
	if err != nil {
		return err
	}
	defer release()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.built.Load() == 0 {
		return ErrNotBuilt
	}
	p, err := e.owner(id)
	if err != nil {
		return err
	}
	return p.delete(id)
}

// Object returns a copy of a stored (normalized) object's vectors by
// modality name. Tombstoned objects are unknown: once deleted, an ID
// stays invisible here even though its row still routes until the next
// Rebuild.
func (e *Engine) Object(id int64) (NamedVectors, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, err := e.owner(id)
	if err != nil {
		return nil, err
	}
	return p.object(id)
}

// Weights returns the engine's current per-modality weights in schema
// order.
func (e *Engine) Weights() Weights { return e.parts[0].Weights() }

// SetWeights replaces the engine's per-modality weights (schema order).
// New searches use them immediately for scoring; each graph keeps routing
// under the weights it was built with until the next Rebuild, which is
// exactly the user-defined-weights setting of §VIII-F and loses little
// recall (Tab. IX). Rebuild to re-optimize routing for the new weights.
//
// The update is atomic per shard, not across shards: a search
// overlapping the call may score different shards under old and new
// weights. Every shard's epoch bumps, so caches invalidate regardless.
func (e *Engine) SetWeights(w Weights) error {
	if len(w) != len(e.schema) {
		return fmt.Errorf("must: %d weights for %d modalities", len(w), len(e.schema))
	}
	for i, x := range w {
		if err := checkFinite([]float32{x}); err != nil {
			return fmt.Errorf("must: weight %d: %w", i, err)
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, p := range e.parts {
		p.setWeights(w)
	}
	return nil
}

// LearnWeights fits modality weights from training pairs (§VI): the true
// answer of queries[i] is the live object with engine ID positives[i].
// The pool of true objects (the paper's T) is exactly the referenced
// objects, in order of first reference, so the learned weights do not
// depend on the shard count. They are stored on the engine and returned;
// training runs off-lock, so it can overlap serving.
func (e *Engine) LearnWeights(queries []NamedVectors, positives []int64, cfg WeightConfig) (Weights, error) {
	if len(queries) != len(positives) {
		return nil, fmt.Errorf("must: %d queries but %d positives", len(queries), len(positives))
	}
	conv := &collection{dims: e.schema.Dims(), names: e.schema.Names()}
	anchors := make([]vec.Multi, len(queries))
	for i, q := range queries {
		o := make(Object, len(e.schema))
		for name, v := range q {
			j, ok := e.byName[name]
			if !ok {
				return nil, fmt.Errorf("must: training query %d: unknown modality %q", i, name)
			}
			o[j] = v
		}
		mv, err := conv.query(o)
		if err != nil {
			return nil, fmt.Errorf("must: training query %d: %w", i, err)
		}
		anchors[i] = mv
	}
	var pool []vec.Multi
	slotOf := make(map[int64]int, len(positives))
	remapped := make([]int, len(positives))
	e.mu.RLock()
	for i, id := range positives {
		slot, ok := slotOf[id]
		if !ok {
			var row vec.Multi
			if p, err := e.owner(id); err == nil {
				row, ok = p.liveRow(id)
			}
			if !ok {
				e.mu.RUnlock()
				return nil, fmt.Errorf("must: positive %d: %w %d", i, ErrUnknownID, id)
			}
			slot = len(pool)
			pool = append(pool, row)
			slotOf[id] = slot
		}
		remapped[i] = slot
	}
	e.mu.RUnlock()
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
	if err := e.SetWeights(res.Weights); err != nil {
		return nil, err
	}
	return res.Weights, nil
}

// EnableQuantization attaches an SQ8 scalar-quantized shadow store (1
// byte/dim, per-modality scales — see vec.SQ8Store) to every shard and
// routes all subsequent searches over it, with an exact float32 re-rank
// of the top rerankK candidates per query and shard (0 means 4·k,
// clamped to the beam width). Memory cost is ~¼ of the float32 corpus on
// top of it; the scan itself touches 4× less memory, which is the point.
//
// Called before Build, the quantizer trains inside Build (after the graph
// seals, over the complete shard). Called on a built engine, it trains
// immediately. Pre-build inserts are not quantized eagerly — scales
// trained on a partial corpus would be garbage — and rows inserted after
// training use the trained scales, clamping out-of-range values (the
// exact re-rank absorbs the extra error; Rebuild retrains from scratch).
func (e *Engine) EnableQuantization(rerankK int) error {
	if rerankK < 0 {
		return fmt.Errorf("must: negative rerank depth %d", rerankK)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, p := range e.parts {
		p.enableQuantization(rerankK)
	}
	return nil
}

// Quantized reports whether searches route over the SQ8 shadow stores.
func (e *Engine) Quantized() bool {
	for _, p := range e.parts {
		if !p.quantized() {
			return false
		}
	}
	return true
}

// SetAdmission installs (or, with the zero value, clears) write-path
// admission control: Insert/InsertObject/Delete past the in-flight
// budget, or issued while the worst shard's maintenance debt exceeds the
// watermark, fail fast with ErrOverloaded. Searches are never gated.
func (e *Engine) SetAdmission(o AdmissionOptions) error {
	return e.adm.configure(o)
}

// WritesShed returns how many writes admission control has refused.
func (e *Engine) WritesShed() uint64 { return e.adm.writesShed() }

// debtRatio reads the worst shard's cached maintenance-debt ratio.
func (e *Engine) debtRatio() float64 {
	var worst float64
	for _, p := range e.parts {
		worst = max(worst, p.debtRatio())
	}
	return worst
}

// buildConcurrency picks how many shards build at once and how many
// workers each shard's graph construction gets, so S parallel builds do
// not oversubscribe the machine: across × per ≤ GOMAXPROCS (with a floor
// of 1 each).
func buildConcurrency(shards int) (across, per int) {
	cores := runtime.GOMAXPROCS(0)
	across = max(min(shards, cores), 1)
	per = max(cores/across, 1)
	return across, per
}

// buildShards runs buildShard over every shard, at most busy of which
// have work, on a bounded pool.
func (e *Engine) buildShards(busy int, rebuild bool) error {
	across, per := buildConcurrency(busy)
	if across > 1 {
		// Give each concurrent shard build an equal slice of the cores
		// instead of letting every build claim all of them.
		prev := graph.SetBuildWorkers(per)
		defer graph.SetBuildWorkers(prev)
	}
	return shard.Do(len(e.parts), across, func(j int) error {
		return e.buildShard(j, rebuild)
	})
}

// buildShard builds (or, when rebuild is set, rebuilds) shard j's graph
// under the shard's build lock, tracking its state. Empty shards are
// skipped: Build leaves them pending for the lazy path, and Rebuild
// skips all-tombstoned shards because compaction would leave them empty.
func (e *Engine) buildShard(j int, rebuild bool) error {
	p := e.parts[j]
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	switch p.State() {
	case ShardBuilt:
		if !rebuild || p.Len() == 0 {
			return nil
		}
		p.state.Store(uint32(ShardBuilding))
		err := p.rebuild()
		p.state.Store(uint32(ShardBuilt))
		return err
	case ShardPending:
		if p.Len() == 0 {
			return nil
		}
		p.state.Store(uint32(ShardBuilding))
		if err := p.buildGraph(); err != nil {
			p.state.Store(uint32(ShardPending))
			return err
		}
		p.state.Store(uint32(ShardBuilt))
		e.built.Add(1)
	}
	return nil
}

// Build constructs the index over everything inserted so far, every
// non-empty shard in parallel on a bounded worker pool. It must be called
// once before Search; after that, use Rebuild to compact and re-optimize.
// Build blocks every other operation for the duration. Empty shards are
// left pending and built lazily by the first Insert routed to them.
func (e *Engine) Build() error {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.built.Load() > 0 {
		return fmt.Errorf("must: engine already built; use Rebuild")
	}
	nonEmpty := 0
	for _, p := range e.parts {
		if p.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return fmt.Errorf("must: cannot index an empty collection")
	}
	return e.buildShards(nonEmpty, false)
}

// Rebuild reconstructs every shard's graph in parallel: per shard,
// tombstoned objects are physically dropped (the paper's periodic
// reconstruction, §IX), the current weights become the build weights,
// and the new graph swaps in atomically. Construction happens on a
// snapshot, so there is no engine-wide stall: each shard keeps serving
// from its old graph until its own swap, and inserts and deletes that
// land meanwhile are replayed before it. A shard whose objects are all
// tombstoned is left as it is — compaction would empty it — so Rebuild of
// an engine with no live object at all succeeds and changes nothing; the
// tombstones go on a later rebuild once the shard holds live objects
// again. Engine IDs are preserved.
func (e *Engine) Rebuild() error {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if e.built.Load() == 0 {
		return ErrNotBuilt
	}
	return e.buildShards(len(e.parts), true)
}

// RebuildShard rebuilds a single shard by index — the incremental
// maintenance hook: callers can walk shards on their own schedule (e.g.
// by tombstone ratio) and compact one at a time, bounding rebuild work
// and transient memory to one shard's worth.
func (e *Engine) RebuildShard(j int) error {
	if j < 0 || j >= len(e.parts) {
		return fmt.Errorf("must: shard %d out of range [0,%d)", j, len(e.parts))
	}
	if e.built.Load() == 0 {
		return ErrNotBuilt
	}
	return e.buildShard(j, true)
}

// Search answers one typed query. It is safe to call from any number of
// goroutines; ctx (nil means context.Background) cancels or time-bounds
// the routing. Results carry per-modality similarity breakdowns and
// routing statistics, and are owned by the caller: every match is cloned
// out of the pooled searcher's buffers before return. A query whose
// Filter panics gets that panic as its error. When only one shard is
// built it answers inline, on the caller's goroutine.
//
// With more than one built shard the query fans out, each shard searching
// on its own goroutine, and the per-shard top-k lists merge with a k-way
// heap. Query.K and Query.L apply per shard, so a sharded search examines
// up to S·L candidates — recall at equal L is never lower than one
// graph's; lower L per shard buys the latency back (see the Sharding
// section of the README). Query.Filter receives engine IDs either way.
// Merged Stats are summed across shards and Latency is the slowest
// shard's (the critical path of the fan-out).
//
// The fan-out degrades instead of failing: each shard recovers panics,
// and the collector stops waiting when ctx expires. A query whose shards
// partly succeeded returns a Response with Partial set and the failures
// listed in ShardErrors — one sick or hanging shard costs that query
// recall, not availability, and the next query searches every shard
// again. Only a query that every shard failed gets an error (so
// validation errors, which fail on all shards identically, surface
// unchanged). Abandoned shard searches observe ctx themselves and exit
// shortly after.
func (e *Engine) Search(ctx context.Context, q Query) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	switch e.built.Load() {
	case 0:
		return nil, ErrNotBuilt
	case 1:
		// A lone built shard has nothing to merge.
		for _, p := range e.parts {
			if p.State() != ShardPending {
				return p.search(ctx, q)
			}
		}
	}
	return e.fanOut(ctx, q)
}

// fanOut answers q on every built shard and merges the answers. Callers
// hold the read lock.
func (e *Engine) fanOut(ctx context.Context, q Query) (*Response, error) {
	var active []int
	for j, p := range e.parts {
		if p.State() != ShardPending {
			active = append(active, j)
		}
	}
	type shardOut struct {
		ai   int
		resp *Response
		err  error
	}
	// Buffered for every shard, so an abandoned shard's send never blocks.
	ch := make(chan shardOut, len(active))
	for ai, j := range active {
		go func() {
			out := shardOut{ai: ai}
			defer func() {
				if r := recover(); r != nil {
					out.resp, out.err = nil, fmt.Errorf("must: shard %d panicked: %v", j, r)
				}
				ch <- out
			}()
			out.resp, out.err = e.parts[j].search(ctx, q)
		}()
	}
	// Collect until the deadline: a shard that has not answered when ctx
	// expires is reported as failed and abandoned (it bails out on its
	// own — searches check ctx — and its answer goes unread).
	results := make([]*shardOut, len(active))
collect:
	for range active {
		select {
		case r := <-ch:
			results[r.ai] = &r
		case <-ctx.Done():
			for {
				select {
				case r := <-ch:
					results[r.ai] = &r
				default:
					break collect
				}
			}
		}
	}
	// An invalid K failed on every shard, so it never reaches the merge.
	k, _, _ := q.size()
	lists := make([][]ScoredMatch, 0, len(active))
	var stats SearchStats
	var latency time.Duration
	var qerr error
	var shardErrs []ShardError
	for ai, j := range active {
		r := results[ai]
		if r == nil {
			shardErrs = append(shardErrs, ShardError{Shard: j, Err: ctx.Err().Error()})
			continue
		}
		if r.err != nil {
			if qerr == nil {
				qerr = r.err
			}
			shardErrs = append(shardErrs, ShardError{Shard: j, Err: r.err.Error()})
			continue
		}
		lists = append(lists, r.resp.Matches)
		stats.FullEvals += r.resp.Stats.FullEvals
		stats.PartialSkips += r.resp.Stats.PartialSkips
		stats.Hops += r.resp.Stats.Hops
		latency = max(latency, r.resp.Latency)
	}
	if len(lists) == 0 {
		// Every shard failed this query: surface the first concrete error
		// (preserving errors.Is matching for validation failures,
		// ErrNotBuilt, ...), or the deadline if no shard got that far.
		if qerr == nil {
			qerr = ctx.Err()
		}
		return nil, qerr
	}
	resp := &Response{Matches: mergeMatches(lists, k), Stats: stats, Latency: latency}
	if len(shardErrs) > 0 {
		resp.Partial = true
		resp.ShardErrors = shardErrs
	}
	return resp, nil
}

// mergeMatches merges per-shard top-k lists, best first.
func mergeMatches(lists [][]ScoredMatch, k int) []ScoredMatch {
	return shard.MergeTopK(lists, k, func(a, b ScoredMatch) bool {
		return a.Similarity > b.Similarity
	})
}

// ExactSearch answers one typed query by exhaustive scan (the paper's
// MUST--) of every shard, merged exactly: exact results for ground truth
// or small corpora, identical for every shard count. Unlike Search it
// works before Build; tombstones and Query.Filter are honored,
// Patience/L/DisableOptimization are ignored, and ctx (nil means
// context.Background) is checked once, up front.
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
	lists := make([][]ScoredMatch, len(e.parts))
	evals := make([]int, len(e.parts))
	if err := shard.Do(len(e.parts), 0, func(j int) (err error) {
		lists[j], evals[j], err = e.parts[j].exactSearch(q, k)
		return err
	}); err != nil {
		return nil, err
	}
	matches := lists[0]
	if len(lists) > 1 {
		matches = mergeMatches(lists, k)
	}
	var stats SearchStats
	for _, n := range evals {
		stats.FullEvals += n
	}
	return &Response{Matches: matches, Stats: stats, Latency: time.Since(start)}, nil
}

// Stats reports statistics of the engine's current index, aggregated
// across built shards: counts and byte sizes sum, ratios and AvgDegree
// re-derive from the summed totals, and BuildTime is the slowest shard's
// (the wall-clock critical path of the parallel build). It returns
// ErrNotBuilt until at least one shard is built.
func (e *Engine) Stats() (Stats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.built.Load() == 0 {
		return Stats{}, ErrNotBuilt
	}
	var agg Stats
	tombstones := 0
	for _, p := range e.parts {
		st, err := p.stats()
		if err != nil {
			continue
		}
		agg.Objects += st.Objects
		agg.Edges += st.Edges
		agg.SizeBytes += st.SizeBytes
		agg.CorpusBytes += st.CorpusBytes
		agg.RawVectorBytes += st.RawVectorBytes
		agg.FusedBytes += st.FusedBytes
		agg.QuantizedBytes += st.QuantizedBytes
		agg.OverlayVertices += st.OverlayVertices
		tombstones += p.Deleted()
		agg.KernelVariant = st.KernelVariant
		agg.BuildTime = max(agg.BuildTime, st.BuildTime)
		if agg.Algorithm == "" {
			agg.Algorithm = st.Algorithm
		}
	}
	if agg.Objects > 0 {
		agg.AvgDegree = float64(agg.Edges) / float64(agg.Objects)
		agg.OverlayRatio = float64(agg.OverlayVertices) / float64(agg.Objects)
		agg.TombstoneRatio = float64(tombstones) / float64(agg.Objects)
	}
	if agg.Edges > 0 {
		agg.GraphBytesPerEdge = float64(agg.SizeBytes) / float64(agg.Edges)
	}
	return agg, nil
}

// ShardStats reports per-shard build progress, sizes and epochs — index
// j describes shard j.
func (e *Engine) ShardStats() []ShardInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]ShardInfo, len(e.parts))
	for j, p := range e.parts {
		out[j] = ShardInfo{
			State:   p.State().String(),
			Objects: p.Len(),
			Deleted: p.Deleted(),
			Epoch:   p.Epoch(),
		}
		out[j].Stats, _ = p.stats()
	}
	return out
}
