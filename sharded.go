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
	"must/internal/maint"
	"must/internal/shard"
)

// ErrAllQuarantined is returned by Search/SearchEach when every built
// shard's health breaker is open, so the fan-out has nowhere to route
// the query. The condition is transient: each breaker re-admits a
// half-open probe within its probe interval (default 5s), and a
// maintenance rebuild resets it sooner. Callers should retry shortly;
// mustd maps it to 503 + Retry-After.
var ErrAllQuarantined = errors.New("must: all shards quarantined")

// ShardState is the build-progress state of one shard of a ShardedEngine.
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

// ShardInfo is one shard's slice of ShardedEngine.ShardStats.
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
	// Health is the shard's circuit-breaker state ("healthy", "degraded",
	// "quarantined", "probing"). Quarantined shards are skipped by the
	// search fan-out until a half-open probe or an automatic rebuild
	// re-admits them.
	Health string `json:"health"`
	// Stats is the shard's index statistics; zero until the shard is
	// built.
	Stats Stats `json:"stats"`
}

// ShardedEngine partitions a corpus into S independent Engine shards, each
// with its own arena-backed store, CSR graph, searcher pool, and locks.
// It implements the same Service surface as Engine and is the scale path:
//
//   - Build and Rebuild run shards in parallel on a bounded worker pool,
//     and Rebuild compacts one shard at a time with no engine-wide stall —
//     each shard keeps serving from its previous graph until its own
//     atomic swap.
//   - Search fans the query out across shards (reusing each shard's
//     pooled searchers) and merges per-shard top-k with a k-way heap,
//     preserving per-modality score breakdowns.
//   - Insert and Delete route by ID, so write locks are per-shard: a
//     write to shard 3 never blocks a search that only touches shard 5.
//
// Global IDs are pure arithmetic over (shard, local): global = local·S +
// shard. Sequential inserts are assigned round-robin, which yields the
// dense sequence 0,1,2,… — byte-identical to the IDs a single Engine
// would hand out for the same insertion order — and keeps shards within
// one object of perfectly balanced.
//
// The shard count is fixed at creation (it is baked into every global
// ID); pick S once, at most a small multiple of the core count.
type ShardedEngine struct {
	schema Schema
	shards []*Engine

	// rr is the round-robin insert cursor; rr mod S picks the next
	// shard. Atomic so Insert never takes an engine-wide lock.
	rr atomic.Uint64

	// buildMu serializes Build/Rebuild at the sharded level, mirroring
	// Engine.rebuildMu.
	buildMu sync.Mutex

	// mu makes the initial Build atomic with respect to every other
	// operation (matching Engine.Build, which holds its write lock for
	// the duration). Rebuild deliberately does NOT hold it — per-shard
	// rebuilds proceed under shardMu only, so serving never stalls.
	mu sync.RWMutex

	// shardMu[j] serializes graph (re)construction of shard j: the
	// parallel Build/Rebuild pools and the lazy build on Insert all
	// transition state[j] under it.
	shardMu []sync.Mutex
	// state[j] is the ShardState of shard j (atomic for lock-free
	// ShardStats reads; written only under shardMu[j]).
	state []atomic.Uint32
	// builtShards counts shards that have a live graph. Zero means the
	// engine as a whole is not built (searches return ErrNotBuilt).
	builtShards atomic.Int32

	// health[j] is shard j's circuit breaker: K consecutive
	// shard-attributable failures — minority panics or straggler
	// timeouts, never query-correlated ones that hit most shards at once
	// — quarantine the shard (skipped by SearchEach until a half-open
	// probe succeeds or a rebuild resets it). Always present;
	// ConfigureHealth replaces the thresholds.
	health []*maint.Breaker

	// adm gates writes at the engine level — one shared budget across
	// shards, debt read as the worst shard's ratio (see SetAdmission).
	adm admission
}

// newShardHealth builds the per-shard breaker set with cfg (zero fields
// take the maint defaults).
func newShardHealth(n int, cfg maint.BreakerConfig) []*maint.Breaker {
	hs := make([]*maint.Breaker, n)
	for j := range hs {
		hs[j] = maint.NewBreaker(cfg)
	}
	return hs
}

// HealthConfig tunes the per-shard circuit breakers; see ConfigureHealth.
type HealthConfig struct {
	// Threshold is K: consecutive shard-attributable failures (panics on
	// a minority of shards, or a fan-out timeout that only this shard
	// missed) within Window before the shard is quarantined (default 3).
	Threshold int
	// Window bounds how far apart consecutive failures may be and still
	// count as one run (default 10s).
	Window time.Duration
	// Probe is how long a quarantined shard stays fully skipped before
	// one half-open probe request is routed to it (default 5s).
	Probe time.Duration
}

// ConfigureHealth retunes every shard's circuit breaker in place (zero
// fields take defaults), resetting all health state to healthy.
// Breakers run with default thresholds from creation, so this is only
// needed to change them.
func (s *ShardedEngine) ConfigureHealth(cfg HealthConfig) {
	for _, b := range s.health {
		b.Configure(maint.BreakerConfig{
			Threshold: cfg.Threshold,
			Window:    cfg.Window,
			Probe:     cfg.Probe,
		})
	}
}

// ShardHealth returns the per-shard circuit-breaker states (index =
// shard): "healthy", "degraded", "quarantined", or "probing".
func (s *ShardedEngine) ShardHealth() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.health))
	for j, b := range s.health {
		out[j] = b.State().String()
	}
	return out
}

// NewShardedEngine creates an empty sharded engine with the given schema
// and shard count. shards must be in [1, 4096]; every shard applies the
// same EngineOptions. Schema[0] is the target modality.
func NewShardedEngine(schema Schema, shards int, opts EngineOptions) (*ShardedEngine, error) {
	if err := shard.Validate(shards); err != nil {
		return nil, fmt.Errorf("must: %w", err)
	}
	s := &ShardedEngine{
		shards:  make([]*Engine, shards),
		shardMu: make([]sync.Mutex, shards),
		state:   make([]atomic.Uint32, shards),
		health:  newShardHealth(shards, maint.BreakerConfig{}),
	}
	for j := range s.shards {
		e, err := NewEngine(schema, opts)
		if err != nil {
			return nil, err
		}
		s.shards[j] = e
	}
	s.schema = s.shards[0].Schema()
	return s, nil
}

// ShardCount returns the number of shards S.
func (s *ShardedEngine) ShardCount() int { return len(s.shards) }

// Schema returns a copy of the engine's schema.
func (s *ShardedEngine) Schema() Schema { return append(Schema(nil), s.schema...) }

// Epoch returns the sum of the per-shard mutation epochs. Each per-shard
// epoch is monotone, so the sum is too, and any result-visible mutation
// anywhere bumps it — the sum is a correct cache-invalidation key just
// like a single engine's epoch.
func (s *ShardedEngine) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum uint64
	for _, e := range s.shards {
		sum += e.Epoch()
	}
	return sum
}

// Epochs returns the per-shard epoch vector (index = shard).
func (s *ShardedEngine) Epochs() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, len(s.shards))
	for j, e := range s.shards {
		out[j] = e.Epoch()
	}
	return out
}

// Len returns the number of live objects across all shards.
func (s *ShardedEngine) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, e := range s.shards {
		n += e.Len()
	}
	return n
}

// Deleted returns the number of tombstoned objects across all shards.
func (s *ShardedEngine) Deleted() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, e := range s.shards {
		n += e.Deleted()
	}
	return n
}

// SetAdmission installs (or, with the zero value, clears) write-path
// admission control at the engine level: one in-flight write budget
// shared across all shards, with maintenance debt read as the worst
// shard's ratio. Gated writes fail fast with ErrOverloaded; searches
// are never gated. See Engine.SetAdmission.
func (s *ShardedEngine) SetAdmission(o AdmissionOptions) error {
	return s.adm.configure(o)
}

// WritesShed returns how many writes admission control has refused.
func (s *ShardedEngine) WritesShed() uint64 { return s.adm.writesShed() }

// debtRatio reads the worst shard's cached maintenance-debt ratio (each
// shard refreshes its own under its write lock).
func (s *ShardedEngine) debtRatio() float64 {
	var worst float64
	for _, e := range s.shards {
		if d := e.adm.debtRatio(); d > worst {
			worst = d
		}
	}
	return worst
}

// Insert adds an object and returns its stable global ID. The object is
// routed round-robin, so only one shard's write lock is taken.
func (s *ShardedEngine) Insert(v NamedVectors) (int64, error) {
	o, err := s.shards[0].positional(v)
	if err != nil {
		return 0, err
	}
	return s.InsertObject(o)
}

// InsertObject is Insert for positional (schema-ordered) vectors.
//
// If the engine is built and the object lands in a shard that is still
// pending (a shard can only be pending while empty), the shard's graph is
// built on the spot so the object becomes searchable, matching the
// single-engine invariant that post-Build inserts are immediately
// visible. In the vanishingly unlikely case that this lazy build fails,
// the object is stored, the error is returned, and the next insert into
// the shard retries the build.
func (s *ShardedEngine) InsertObject(o Object) (int64, error) {
	release, err := s.adm.admit(s.debtRatio())
	if err != nil {
		return 0, err
	}
	defer release()
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.shards)
	j := int(s.rr.Add(1)-1) % n
	local, err := s.shards[j].InsertObject(o)
	if err != nil {
		return 0, err
	}
	id := shard.Global(j, local, n)
	if s.builtShards.Load() > 0 && ShardState(s.state[j].Load()) == ShardPending {
		if err := s.buildShard(j, false); err != nil {
			return id, fmt.Errorf("must: shard %d lazy build: %w", j, err)
		}
	}
	return id, nil
}

// Delete tombstones the object with the given global ID. Only the owning
// shard's write lock is taken. Returns ErrOverloaded when admission
// control sheds the write.
func (s *ShardedEngine) Delete(id int64) error {
	release, err := s.adm.admit(s.debtRatio())
	if err != nil {
		return err
	}
	defer release()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 0 {
		return fmt.Errorf("must: %w %d", ErrUnknownID, id)
	}
	j, local := shard.Split(id, len(s.shards))
	err = s.shards[j].Delete(local)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrUnknownID):
		return fmt.Errorf("must: %w %d", ErrUnknownID, id)
	case errors.Is(err, ErrNotBuilt) && s.builtShards.Load() > 0:
		// The owning shard is pending, hence empty: the ID cannot exist.
		// Report what a built single engine would.
		return fmt.Errorf("must: %w %d", ErrUnknownID, id)
	}
	return err
}

// Object returns the stored (normalized) vectors of a live object by
// global ID.
func (s *ShardedEngine) Object(id int64) (NamedVectors, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 0 {
		return nil, fmt.Errorf("must: %w %d", ErrUnknownID, id)
	}
	j, local := shard.Split(id, len(s.shards))
	v, err := s.shards[j].Object(local)
	if err != nil && errors.Is(err, ErrUnknownID) {
		return nil, fmt.Errorf("must: %w %d", ErrUnknownID, id)
	}
	return v, err
}

// Weights returns a copy of the current per-modality weights.
func (s *ShardedEngine) Weights() Weights {
	return s.shards[0].Weights()
}

// SetWeights replaces the per-modality weights on every shard. The update
// is per-shard atomic but not engine-wide atomic: a search overlapping
// the call may score different shards under old and new weights for one
// request. Every shard's epoch bumps, so caches invalidate regardless.
func (s *ShardedEngine) SetWeights(w Weights) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.shards {
		if err := e.SetWeights(w); err != nil {
			return err
		}
	}
	return nil
}

// EnableQuantization attaches an SQ8 shadow store to every shard and
// routes all subsequent searches over the quantized path with an exact
// re-rank of the top rerankK candidates per shard (0 = 4·k). See
// Engine.EnableQuantization for training semantics.
func (s *ShardedEngine) EnableQuantization(rerankK int) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.shards {
		if err := e.EnableQuantization(rerankK); err != nil {
			return err
		}
	}
	return nil
}

// Quantized reports whether searches route over the SQ8 shadow stores.
func (s *ShardedEngine) Quantized() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.shards {
		if !e.Quantized() {
			return false
		}
	}
	return len(s.shards) > 0
}

// LearnWeights fits modality weights from training pairs (§VI) exactly as
// Engine.LearnWeights does: the pool T is the set of referenced positive
// objects, so the training problem is identical to the single-engine one
// over the same pairs. The learned weights are applied to every shard and
// returned.
func (s *ShardedEngine) LearnWeights(queries []NamedVectors, positives []int64, cfg WeightConfig) (Weights, error) {
	ref := s.shards[0]
	posQueries, err := ref.trainingQueries(queries, positives)
	if err != nil {
		return nil, err
	}
	// Gather the referenced positives into a temporary pool collection.
	// LearnWeights only ever samples from the referenced objects (the
	// paper's T), so this loses nothing relative to handing it the full
	// corpus.
	pool := &collection{dims: s.schema.Dims(), names: s.schema.Names()}
	slotOf := make(map[int64]int, len(positives))
	internal := make([]int, len(positives))
	for i, id := range positives {
		slot, ok := slotOf[id]
		if !ok {
			nv, err := s.Object(id)
			if err != nil {
				return nil, fmt.Errorf("must: positive %d: %w", i, err)
			}
			o, err := ref.positional(nv)
			if err != nil {
				return nil, fmt.Errorf("must: positive %d: %w", i, err)
			}
			slot, err = pool.Add(o)
			if err != nil {
				return nil, fmt.Errorf("must: positive %d: %w", i, err)
			}
			slotOf[id] = slot
		}
		internal[i] = slot
	}
	w, err := learnWeights(pool, posQueries, internal, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.SetWeights(w); err != nil {
		return nil, err
	}
	return w, nil
}

// buildConcurrency picks how many shards build at once and how many
// workers each shard's graph construction gets, so S parallel builds do
// not oversubscribe the machine: across × per ≤ GOMAXPROCS (with a floor
// of 1 each).
func buildConcurrency(shards int) (across, per int) {
	cores := runtime.GOMAXPROCS(0)
	across = shards
	if across > cores {
		across = cores
	}
	if across < 1 {
		across = 1
	}
	per = cores / across
	if per < 1 {
		per = 1
	}
	return across, per
}

// buildShard builds (or, when rebuild is set, rebuilds) one shard's
// graph, serialized per shard and tracked in state[j]. Empty shards are
// skipped: Build leaves them pending for the lazy path, and Rebuild skips
// all-tombstoned shards because compaction would leave them empty.
func (s *ShardedEngine) buildShard(j int, rebuild bool) error {
	s.shardMu[j].Lock()
	defer s.shardMu[j].Unlock()
	e := s.shards[j]
	switch ShardState(s.state[j].Load()) {
	case ShardBuilt:
		if !rebuild || e.Len() == 0 {
			return nil
		}
		s.state[j].Store(uint32(ShardBuilding))
		err := e.Rebuild()
		s.state[j].Store(uint32(ShardBuilt))
		if err == nil {
			// The rebuild replaced the graph the failures were blamed on:
			// re-admit the shard (quarantine's recovery path).
			s.health[j].Reset()
		}
		return err
	case ShardPending:
		if e.Len() == 0 {
			return nil
		}
		s.state[j].Store(uint32(ShardBuilding))
		if err := e.Build(); err != nil {
			s.state[j].Store(uint32(ShardPending))
			return err
		}
		s.state[j].Store(uint32(ShardBuilt))
		s.builtShards.Add(1)
		s.health[j].Reset()
		return nil
	}
	return nil
}

// Build constructs every non-empty shard's index in parallel on a bounded
// worker pool. Like Engine.Build it must be called once before Search and
// blocks other operations for the duration; empty shards are left pending
// and built lazily by the first Insert routed to them.
func (s *ShardedEngine) Build() error {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.builtShards.Load() > 0 {
		return fmt.Errorf("must: engine already built; use Rebuild")
	}
	nonEmpty := 0
	for _, e := range s.shards {
		if e.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return fmt.Errorf("must: cannot index an empty collection")
	}
	across, per := buildConcurrency(nonEmpty)
	if across > 1 {
		// Give each concurrent shard build an equal slice of the cores
		// instead of letting every build claim all of them.
		prev := graph.SetBuildWorkers(per)
		defer graph.SetBuildWorkers(prev)
	}
	return shard.Do(len(s.shards), across, func(j int) error {
		return s.buildShard(j, false)
	})
}

// Rebuild reconstructs every shard's graph in parallel: per shard,
// tombstones are physically dropped, current weights become build
// weights, and the new graph swaps in atomically — the paper's periodic
// reconstruction (§IX), shard by shard. Unlike a single engine there is
// no engine-wide stall: each shard keeps serving from its old graph until
// its own swap, and searches overlapping the rebuild simply see shards
// compact one at a time. Shards whose objects are all tombstoned are
// skipped (compaction would empty them); their tombstones are dropped on
// a later rebuild once the shard has live objects again. Global IDs are
// preserved.
func (s *ShardedEngine) Rebuild() error {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	if s.builtShards.Load() == 0 {
		return ErrNotBuilt
	}
	across, per := buildConcurrency(len(s.shards))
	if across > 1 {
		prev := graph.SetBuildWorkers(per)
		defer graph.SetBuildWorkers(prev)
	}
	return shard.Do(len(s.shards), across, func(j int) error {
		return s.buildShard(j, true)
	})
}

// RebuildShard rebuilds a single shard by index — the incremental
// maintenance hook: callers can walk shards on their own schedule (e.g.
// by tombstone ratio) and compact one at a time, bounding rebuild work
// and transient memory to one shard's worth.
func (s *ShardedEngine) RebuildShard(j int) error {
	if j < 0 || j >= len(s.shards) {
		return fmt.Errorf("must: shard %d out of range [0,%d)", j, len(s.shards))
	}
	if s.builtShards.Load() == 0 {
		return ErrNotBuilt
	}
	return s.buildShard(j, true)
}

// Search answers one typed query by fanning it out across shards and
// merging the per-shard top-k.
func (s *ShardedEngine) Search(ctx context.Context, q Query) (*Response, error) {
	out, errs := s.SearchEach(ctx, []Query{q}, 0)
	if len(errs) > 0 && errs[0] != nil {
		return nil, errs[0]
	}
	return out[0], nil
}

// SearchEach answers many queries concurrently: every built shard runs
// the whole batch through its own SearchEach (pooled searchers, one read
// lock per shard), then each query's per-shard top-k lists are merged
// with a k-way heap. out[i] and errs[i] describe queries[i]; any shard
// failing a query fails that query only.
//
// Semantics relative to a single engine: Query.K and Query.L apply per
// shard, so a sharded search examines up to S·L candidates — recall at
// equal L is never lower than the single engine's; lower L per shard
// buys the latency back (see the Sharding section of the README).
// Query.Filter receives global IDs, exactly as with a single engine.
// Merged Stats are summed across shards and Latency is the slowest
// shard's (the critical path of the fan-out).
//
// Fan-out degrades instead of failing: each shard runs in its own
// worker with panic recovery, and the collector stops waiting when ctx
// expires. A query whose shards partly succeeded returns a Response
// with Partial set and the failures listed in ShardErrors — one sick or
// hanging shard costs recall, not availability. Only a query that every
// shard failed gets an error (so validation errors, which fail on all
// shards identically, surface exactly as before). Abandoned shard
// workers observe ctx themselves and exit shortly after.
func (s *ShardedEngine) SearchEach(ctx context.Context, queries []Query, workers int) ([]*Response, []error) {
	if len(queries) == 0 {
		return nil, nil
	}
	out := make([]*Response, len(queries))
	errs := make([]error, len(queries))
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.builtShards.Load() == 0 {
		for i := range errs {
			errs[i] = ErrNotBuilt
		}
		return out, errs
	}
	n := len(s.shards)
	now := time.Now()
	var active, quarantined []int
	for j := range s.shards {
		if ShardState(s.state[j].Load()) == ShardPending {
			continue
		}
		// The breaker admits healthy/degraded shards always and a
		// quarantined shard once per probe interval (half-open probe);
		// otherwise the shard is skipped and reported via ShardErrors.
		if !s.health[j].Allow(now) {
			quarantined = append(quarantined, j)
			continue
		}
		active = append(active, j)
	}
	if len(active) == 0 {
		for i := range errs {
			errs[i] = ErrAllQuarantined
		}
		return out, errs
	}
	perShard := workers
	if perShard > 0 {
		perShard /= len(active)
		if perShard < 1 {
			perShard = 1
		}
	}
	type shardOut struct {
		resps    []*Response
		errs     []error
		panicked bool
	}
	anyPanicErr := func(es []error) bool {
		for _, e := range es {
			if errors.Is(e, errSearchPanicked) {
				return true
			}
		}
		return false
	}
	results := make([]shardOut, len(active))
	done := make([]chan struct{}, len(active))
	for ai := range active {
		done[ai] = make(chan struct{})
	}
	for ai := range active {
		go func(ai int) {
			defer close(done[ai])
			j := active[ai]
			defer func() {
				if r := recover(); r != nil {
					perr := fmt.Errorf("must: shard %d panicked: %v", j, r)
					es := make([]error, len(queries))
					for i := range es {
						es[i] = perr
					}
					results[ai] = shardOut{errs: es, panicked: true}
				}
			}()
			qs := queries
			// Rewrite filters into the shard's local-ID domain; the query
			// slice is copied only when some query actually has a filter.
			for i := range queries {
				if queries[i].Filter != nil {
					qs = make([]Query, len(queries))
					copy(qs, queries)
					for i := range qs {
						if f := qs[i].Filter; f != nil {
							qs[i].Filter = func(local int64) bool {
								return f(shard.Global(j, local, n))
							}
						}
					}
					break
				}
			}
			r, e := s.shards[j].SearchEach(ctx, qs, perShard)
			results[ai] = shardOut{resps: r, errs: e}
		}(ai)
	}
	// Collect until the deadline: a shard that has not finished when ctx
	// expires is reported as failed and its worker abandoned (it bails
	// out on its own — per-query searches check ctx — and only touches
	// its own results slot, which no one reads).
	finished := make([]bool, len(active))
	for ai := range active {
		select {
		case <-done[ai]:
			finished[ai] = true
		case <-ctx.Done():
			select {
			case <-done[ai]:
				finished[ai] = true
			default:
			}
		}
	}
	// Feed the health breakers. A failure must be shard-attributable, or
	// one misbehaving client would trip every breaker at once and turn
	// graceful degradation into a cluster-wide outage:
	//
	//   - A panic (in the shard worker or recovered inside the shard
	//     engine's own search path) counts against a shard only when a
	//     minority of the active shards panicked in this batch. A panic
	//     on a strict majority — e.g. a Query.Filter that panics on every
	//     ID — is query-correlated: it says nothing about any one shard,
	//     so it is treated like a validation error (which also hits every
	//     shard identically) rather than as S simultaneous shard faults.
	//   - A shard unfinished at ctx expiry counts as a failure only when
	//     the deadline was exceeded AND a strict majority of shards did
	//     finish — a true straggler. Caller cancellation, or a deadline
	//     that most shards missed together (the whole fan-out was slow
	//     under load), is neutral: neither failure nor success.
	//
	// A completed, non-panicking batch is a success; non-panic per-query
	// errors count as successes too. A failed half-open probe
	// re-quarantines; a neutral outcome leaves the breaker probing, and
	// Allow re-admits a fresh probe after another probe interval.
	nFinished, nPanicked := 0, 0
	panicked := make([]bool, len(active))
	for ai := range active {
		if !finished[ai] {
			continue
		}
		nFinished++
		if results[ai].panicked || anyPanicErr(results[ai].errs) {
			panicked[ai] = true
			nPanicked++
		}
	}
	queryCorrelatedPanic := nPanicked*2 > len(active)
	straggler := errors.Is(ctx.Err(), context.DeadlineExceeded) && nFinished*2 > len(active)
	feedAt := time.Now()
	for ai, j := range active {
		switch {
		case !finished[ai]:
			if straggler {
				s.health[j].Failure(feedAt)
			}
		case panicked[ai] && !queryCorrelatedPanic:
			s.health[j].Failure(feedAt)
		default:
			s.health[j].Success()
		}
	}
	for i := range queries {
		// An invalid K failed on every shard, so it never reaches the merge.
		k, _, _ := queries[i].size()
		lists := make([][]ScoredMatch, 0, len(active))
		var stats SearchStats
		var latency time.Duration
		var qerr error
		var shardErrs []ShardError
		for _, j := range quarantined {
			shardErrs = append(shardErrs, ShardError{Shard: j, Err: "shard quarantined"})
		}
		for ai, j := range active {
			if !finished[ai] {
				shardErrs = append(shardErrs, ShardError{Shard: j, Err: ctx.Err().Error()})
				continue
			}
			if e := results[ai].errs[i]; e != nil {
				if qerr == nil {
					qerr = e
				}
				shardErrs = append(shardErrs, ShardError{Shard: j, Err: e.Error()})
				continue
			}
			resp := results[ai].resps[i]
			// Matches are cloned out of searcher buffers by the shard, so
			// rewriting IDs in place is safe.
			for mi := range resp.Matches {
				resp.Matches[mi].ID = shard.Global(j, resp.Matches[mi].ID, n)
			}
			lists = append(lists, resp.Matches)
			stats.FullEvals += resp.Stats.FullEvals
			stats.PartialSkips += resp.Stats.PartialSkips
			stats.Hops += resp.Stats.Hops
			if resp.Latency > latency {
				latency = resp.Latency
			}
		}
		if len(lists) == 0 {
			// Every shard failed this query: surface the first concrete
			// error (preserving errors.Is matching for validation failures,
			// ErrNotBuilt, ...), or the deadline if no shard got that far.
			if qerr == nil {
				qerr = ctx.Err()
			}
			errs[i] = qerr
			continue
		}
		merged := shard.MergeTopK(lists, k, func(a, b ScoredMatch) bool {
			return a.Similarity > b.Similarity
		})
		resp := &Response{Matches: merged, Stats: stats, Latency: latency}
		if len(shardErrs) > 0 {
			resp.Partial = true
			resp.ShardErrors = shardErrs
		}
		out[i] = resp
	}
	return out, errs
}

// SearchBatch answers many queries concurrently, failing the whole call
// on the first per-query error (see Engine.SearchBatch).
func (s *ShardedEngine) SearchBatch(ctx context.Context, queries []Query, workers int) ([]*Response, error) {
	out, errs := s.SearchEach(ctx, queries, workers)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("must: batch query %d: %w", i, err)
		}
	}
	return out, nil
}

// ExactSearch answers one typed query by exhaustive scan over every
// shard, merged exactly. Like Engine.ExactSearch it works before Build
// and honors tombstones and Query.Filter.
func (s *ShardedEngine) ExactSearch(ctx context.Context, q Query) (*Response, error) {
	start := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.shards)
	resps := make([]*Response, n)
	errs := make([]error, n)
	_ = shard.Do(n, 0, func(j int) error {
		sq := q
		if f := q.Filter; f != nil {
			sq.Filter = func(local int64) bool {
				return f(shard.Global(j, local, n))
			}
		}
		resps[j], errs[j] = s.shards[j].ExactSearch(ctx, sq)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	k, _, _ := q.size() // the shards above rejected an invalid K
	lists := make([][]ScoredMatch, n)
	var stats SearchStats
	for j, resp := range resps {
		for mi := range resp.Matches {
			resp.Matches[mi].ID = shard.Global(j, resp.Matches[mi].ID, n)
		}
		lists[j] = resp.Matches
		stats.FullEvals += resp.Stats.FullEvals
	}
	merged := shard.MergeTopK(lists, k, func(a, b ScoredMatch) bool {
		return a.Similarity > b.Similarity
	})
	return &Response{Matches: merged, Stats: stats, Latency: time.Since(start)}, nil
}

// Stats aggregates index statistics across built shards: counts and byte
// sizes sum, AvgDegree re-derives from the summed totals, and BuildTime
// is the slowest shard's (the wall-clock critical path of the parallel
// build). It returns ErrNotBuilt until at least one shard is built.
func (s *ShardedEngine) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.builtShards.Load() == 0 {
		return Stats{}, ErrNotBuilt
	}
	var agg Stats
	tombstones := 0
	for j := range s.shards {
		if ShardState(s.state[j].Load()) == ShardPending {
			continue
		}
		st, err := s.shards[j].Stats()
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
		tombstones += s.shards[j].Deleted()
		if agg.KernelVariant == "" {
			agg.KernelVariant = st.KernelVariant
		}
		if st.BuildTime > agg.BuildTime {
			agg.BuildTime = st.BuildTime
		}
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

// ShardStats reports per-shard build progress, sizes, and epochs —
// index j describes shard j.
func (s *ShardedEngine) ShardStats() []ShardInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ShardInfo, len(s.shards))
	for j, e := range s.shards {
		info := ShardInfo{
			State:   ShardState(s.state[j].Load()).String(),
			Objects: e.Len(),
			Deleted: e.Deleted(),
			Epoch:   e.Epoch(),
			Health:  s.health[j].State().String(),
		}
		if st, err := e.Stats(); err == nil {
			info.Stats = st
		}
		out[j] = info
	}
	return out
}
