// Package search implements MUST's merging-free joint search (Algorithm 2,
// §VII-B): greedy beam routing over the fused proximity graph under the
// joint similarity of Lemma 1, with the multi-vector partial-inner-product
// early-termination optimization of Lemma 4.
package search

import (
	"context"
	"fmt"
	"math/rand"

	"must/internal/graph"
	"must/internal/vec"
)

// Stats reports the work one search performed; the Fig. 10(c) experiment
// and the efficiency analyses read these.
type Stats struct {
	// FullEvals counts candidates whose joint IP was computed across all
	// modalities.
	FullEvals int
	// PartialSkips counts candidates discarded early by the Lemma 4
	// bound before all modalities were scanned.
	PartialSkips int
	// Hops counts the vertices expanded by greedy routing.
	Hops int
}

// Searcher executes joint searches over a fused index. It is not safe for
// concurrent use; create one Searcher per goroutine (they share the
// underlying graph and the read-only vector storage — pooled searchers
// over one shared FlatStore cost only their visit buffers).
//
// Steady-state searches are allocation-free: the visit state is a single
// epoch-stamped []uint32 (bumping the epoch resets it in O(1)), the
// Algorithm 2 result pool and the neighbor-batch buffer are reused across
// calls, and the scanners re-target in place. The returned result slice is
// part of that reused state — see SearchParams.
//
// Candidate scoring runs on a contiguous vec.FlatStore through the fused
// vec.FlatScanner kernel: one ω²-scaled multiply-add sweep per candidate
// row, a hop's rows scored four per kernel call, with the Lemma 4 early
// exit checked at modality boundaries. Params.Quantized swaps in the
// store's SQ8 code rows, scored one at a time; nothing else scores.
type Searcher struct {
	g *graph.Graph
	// store is the packed vector storage every candidate is scored
	// against; nil only for an empty index.
	store *vec.FlatStore
	// n is the object count at construction time; searchers never see
	// objects appended later (create a new searcher after inserts).
	n       int
	weights vec.Weights
	// starts caches the random initial candidates of Algorithm 2 line 2:
	// the draws of a seed-1 rng over [0, n), skipping the graph seed and
	// repeats. Every search takes its l−1 starts as a prefix, so an answer
	// does not depend on which queries the searcher served before; rng
	// extends the cache when a search asks for a larger l.
	starts []int32
	rng    *rand.Rand

	// Reusable per-search state. marks is the epoch-stamped visit array:
	// marks[v] == gen means v's IP has been computed (H' of Algorithm 2),
	// marks[v] == gen+1 means v has also been expanded (H). gen advances
	// by 2 per search, so the array resets without being touched.
	marks []uint32
	gen   uint32
	// pool is the result set R of Algorithm 2, reused across calls.
	pool []poolEntry
	// results backs the returned slice; valid until the next search.
	results []Result
	batch   []int32 // unseen neighbors of the current hop, gathered first
	// flat is the reusable fused scanner (reset per call).
	flat vec.FlatScanner
	// sq8 is the reusable quantized scanner (reset per call when
	// Params.Quantized routes over the SQ8 shadow store).
	sq8 vec.SQ8Scanner
}

// poolEntry is one entry of the Algorithm 2 result pool R.
type poolEntry struct {
	id int32
	ip float32
}

// NewFlat creates a Searcher over a built graph, the packed store its
// vertices index, and the modality weights. The store is shared, not
// copied: pooled searchers over one store cost only their visit buffers.
// store may be nil only for an empty index.
func NewFlat(g *graph.Graph, store *vec.FlatStore, w vec.Weights) *Searcher {
	n := 0
	if store != nil {
		n = store.Len()
	}
	return &Searcher{
		g:       g,
		store:   store,
		n:       n,
		weights: w,
		rng:     rand.New(rand.NewSource(1)),
		marks:   make([]uint32, n),
	}
}

// Result is one returned object with its joint similarity.
type Result struct {
	ID int
	IP float32
	// PerModality holds the per-modality contributions ω_i²·IP_i whose sum
	// is the joint IP (Lemma 1). Populated only when Params.Breakdown is
	// set; nil otherwise.
	PerModality []float32
}

// Params configures a single search call. The zero value is not useful —
// K and L are required; Search fills in the rest with Optimize on.
type Params struct {
	// K is the number of results; L is the result-set size l of
	// Algorithm 2 (l ≥ k).
	K, L int
	// Weights overrides the searcher weights for this call (user-defined
	// weight preference, §VIII-F); nil keeps the searcher weights.
	Weights vec.Weights
	// Filter restricts results to accepted objects — the hybrid
	// vector-plus-constraint queries of §III. Rejected objects still
	// route; raise L when the filter is selective.
	Filter func(id int) bool
	// Tombstones marks deleted objects (§IX index updates): tombstoned
	// vertices still route — they may be essential for connectivity — but
	// are never returned. The slice is read at call time, so callers may
	// flip entries between searches.
	Tombstones []bool
	// Patience > 0 enables adaptive early termination: stop routing after
	// this many consecutive hops that fail to improve the result pool
	// (0 runs Algorithm 2 to completion).
	Patience int
	// Optimize toggles the Lemma 4 partial-IP early termination (§VII-B,
	// Fig. 10(c)).
	Optimize bool
	// Breakdown requests per-modality similarity contributions on the
	// returned results (Result.PerModality).
	Breakdown bool
	// Quantized routes the beam search over the store's SQ8 shadow (1
	// byte/dim instead of 4 — see vec.SQ8Store) and re-ranks the top
	// RerankK pool entries with exact float32 scores before returning.
	// Silently falls back to the exact path when the store has no trained
	// shadow covering the searcher's snapshot (e.g. quantization disabled).
	Quantized bool
	// RerankK is the exact re-rank depth of the quantized path: how many
	// of the top pool entries get exact float32 scores. 0 means 4·K
	// (clamped to L). Deeper re-rank recovers more of the recall lost to
	// quantization error at the cost of rerank_k full float32 sweeps.
	RerankK int
	// Ctx, when non-nil, is checked periodically during routing; the
	// search aborts with the context's error on cancellation or deadline.
	Ctx context.Context
}

// ctxCheckInterval is how many routing hops pass between ctx.Err() polls;
// a power of two so the check compiles to a mask.
const ctxCheckInterval = 64

// Search returns the approximate top-k results for the multimodal query
// under the searcher's weights. l is the result-set size of Algorithm 2
// (l ≥ k); larger l trades speed for recall (Tab. XII). Missing query
// modalities are handled by zero weights in the searcher's weight vector
// (§VII-B). The returned slice is owned by the Searcher and valid until
// its next search — see SearchParams.
func (s *Searcher) Search(query vec.Multi, k, l int) ([]Result, Stats, error) {
	return s.SearchParams(query, Params{K: k, L: l, Optimize: true})
}

// SearchParams is Search with explicit per-call parameters. It lets one
// pooled Searcher serve calls with different filters, weights, tombstone
// sets, and contexts: the Searcher contributes only the graph, the object
// vectors, and its reusable routing buffers.
//
// The returned slice aliases the Searcher's reusable result buffer: it is
// valid until the next Search/SearchParams call on this Searcher. Copy it
// (or the fields you need) before searching again — the steady-state
// search path performs zero allocations, so there is no per-call slice to
// hand out.
func (s *Searcher) SearchParams(query vec.Multi, p Params) ([]Result, Stats, error) {
	k, l := p.K, p.L
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("search: k must be positive, got %d", k)
	}
	if l < k {
		return nil, Stats{}, fmt.Errorf("search: l (%d) must be at least k (%d)", l, k)
	}
	if s.store != nil && len(query) != 0 && len(query) != s.store.Modalities() {
		return nil, Stats{}, fmt.Errorf("search: query has %d modalities, objects have %d", len(query), s.store.Modalities())
	}
	if p.Ctx != nil {
		if err := p.Ctx.Err(); err != nil {
			return nil, Stats{}, fmt.Errorf("search: %w", err)
		}
	}
	n := s.n
	if n == 0 {
		return nil, Stats{}, nil
	}
	if l > n {
		l = n
	}
	weights := s.weights
	if p.Weights != nil {
		weights = p.Weights
	}

	var stats Stats
	// Two store kinds are scored. Float32 rows go a batch at a time, four
	// rows per kernel call (FlatScanner.Prescore, then FullIPAt/ScanAt per
	// row). SQ8 code rows (quant != nil) go one at a time through the
	// quantized scanner: approximate (dequantized) scores, which the
	// post-routing re-rank with the float32 scanner makes exact. Both
	// scanners are re-targeted in place, with no allocation.
	flat := &s.flat
	flat.Reset(s.store, weights, query)
	var quant *vec.SQ8Scanner
	var codes *vec.SQ8Store
	if p.Quantized {
		if q := s.store.SQ8(); q != nil && q.Trained() && q.Len() >= n {
			s.sq8.Reset(s.store, weights, query)
			quant = &s.sq8
			codes = q
		}
	}

	// Advance the visit epoch: every stamp from previous searches is now
	// stale, which resets the whole array in O(1). Near the uint32 limit
	// the stamps are cleared for real and the epoch restarts.
	s.gen += 2
	if s.gen >= ^uint32(1) { // 2^32-2: gen+1 would wrap next search
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.gen = 2
	}
	gen := s.gen
	marks := s.marks
	seenCount := 0

	// R: the result pool, sorted by descending IP, capacity l, reused
	// across calls. cursor is the lowest index that may hold an unvisited
	// entry: everything before it is visited, so the per-hop "nearest
	// unvisited vertex" lookup resumes from cursor instead of rescanning
	// the pool from the top (which costs O(l) per hop and dominated
	// routing at large l).
	if cap(s.pool) < l {
		s.pool = make([]poolEntry, 0, l)
	}
	pool := s.pool[:0]
	cursor := 0
	insert := func(id int32, ip float32) {
		// Hand-rolled binary search for the first entry with a smaller IP
		// (sort.Search's closure indirection shows up at this call rate).
		lo, hi := 0, len(pool)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if pool[mid].ip < ip {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		pos := lo
		if len(pool) < l {
			pool = append(pool, poolEntry{})
		} else if pos >= l {
			return
		}
		copy(pool[pos+1:], pool[pos:])
		pool[pos] = poolEntry{id, ip}
		if pos < cursor {
			cursor = pos
		}
	}
	mark := func(id int32) {
		marks[id] = gen
		seenCount++
	}

	// Line 1-3: seed plus l-1 random vertices, the first l-1 cached
	// starts. The pool is not full yet, so every start is inserted and
	// their order never depends on a score: gather them all first, then
	// score them as one batch.
	if cap(s.batch) < l {
		s.batch = make([]int32, 0, l)
	}
	seeds := append(s.batch[:0], s.g.Seed)
	mark(s.g.Seed)
	for _, id := range s.starts[:min(l-1, len(s.starts))] {
		mark(id)
		seeds = append(seeds, id)
	}
	// Extend the cache only once all of it is marked, so skipping marked
	// draws skips exactly the seed and the starts already cached.
	for len(seeds) < l {
		id := int32(s.rng.Intn(n))
		if marks[id] >= gen {
			continue
		}
		mark(id)
		seeds = append(seeds, id)
		s.starts = append(s.starts, id)
	}
	s.batch = seeds
	if quant == nil {
		flat.Prescore(s.store, seeds, 0, false)
	}
	stats.FullEvals += len(seeds)
	for i, id := range seeds {
		if quant != nil {
			insert(id, quant.FullIP(codes.Row(int(id))))
		} else {
			insert(id, flat.FullIPAt(i))
		}
	}

	// Lines 4-10: greedy routing.
	stale := 0
	for {
		if p.Ctx != nil && stats.Hops&(ctxCheckInterval-1) == 0 {
			if err := p.Ctx.Err(); err != nil {
				s.pool = pool[:0]
				return nil, stats, fmt.Errorf("search: %w", err)
			}
		}
		// v ← nearest unvisited vertex in R (first unvisited at or after
		// cursor; the cursor invariant keeps everything before it visited).
		for cursor < len(pool) && marks[pool[cursor].id] == gen+1 {
			cursor++
		}
		if cursor == len(pool) {
			break
		}
		v := pool[cursor].id
		marks[v] = gen + 1 // visited
		stats.Hops++
		threshold := pool[len(pool)-1].ip // worst of R (z in Algorithm 2)
		full := len(pool) == l
		improved := false
		// Gather the unseen neighbors first — one zero-copy subslice of
		// the CSR edge array per hop — then score the batch. On float32
		// rows the batch is scored four rows per kernel call (Prescore): a
		// single row's dot is one dependent add chain, so it is latency-
		// bound even with the row in L1, while four rows keep four chains
		// and four hardware-prefetched streams in flight, straight from
		// the cold rows. There is deliberately no software prefetch of
		// these 3 KB rows: a whole hop's rows (more than L1) issued ahead
		// of the first dot made memory time and compute time add up
		// instead of overlapping. The SQ8 code rows keep theirs: at 768 B
		// they are too short for the hardware streamer to get going. The
		// walk below then makes every decision in the original order
		// against the tightening threshold, exactly as row-at-a-time Scan
		// calls would — Prescore only decides what is computed early.
		batch := s.batch[:0]
		for _, u := range s.g.Neighbors(v) {
			if marks[u] >= gen {
				continue
			}
			mark(u)
			batch = append(batch, u)
			if quant != nil {
				vec.PrefetchBytes(codes.Row(int(u)))
			}
		}
		s.batch = batch
		if quant == nil {
			flat.Prescore(s.store, batch, threshold, p.Optimize && full)
		}
		for i, u := range batch {
			var ip float32
			if p.Optimize && full {
				var exact bool
				if quant != nil {
					ip, exact = quant.Scan(codes.Row(int(u)), threshold)
				} else {
					ip, exact = flat.ScanAt(i, threshold)
				}
				if !exact {
					stats.PartialSkips++
					continue
				}
				stats.FullEvals++
			} else {
				stats.FullEvals++
				if quant != nil {
					ip = quant.FullIP(codes.Row(int(u)))
				} else {
					ip = flat.FullIPAt(i)
				}
				if full && ip <= threshold {
					continue
				}
			}
			insert(u, ip)
			improved = true
			threshold = pool[len(pool)-1].ip
			full = len(pool) == l
		}
		if p.Patience > 0 {
			if improved {
				stale = 0
			} else if stale++; stale >= p.Patience {
				break
			}
		}
	}
	// Hand the (possibly grown) pool buffer back to the searcher.
	s.pool = pool

	// Exact re-rank of the quantized path: the top rk pool entries are
	// re-scored with the float32 scanner (already reset for this query)
	// and re-sorted in place. Entries past rk keep their approximate
	// scores — they only matter when filters/tombstones skip past the
	// re-ranked prefix, and the default depth of 4·k leaves slack for
	// that. Insertion sort: rk is small and the quantized order is already
	// nearly correct.
	if quant != nil {
		rk := p.RerankK
		if rk <= 0 {
			rk = 4 * k
		}
		if rk > len(pool) {
			rk = len(pool)
		}
		batch := s.batch[:0]
		for _, e := range pool[:rk] {
			batch = append(batch, e.id)
		}
		s.batch = batch
		flat.Prescore(s.store, batch, 0, false)
		stats.FullEvals += rk
		for i := range batch {
			pool[i].ip = flat.FullIPAt(i)
		}
		for i := 1; i < rk; i++ {
			e := pool[i]
			j := i
			for ; j > 0 && pool[j-1].ip < e.ip; j-- {
				pool[j] = pool[j-1]
			}
			pool[j] = e
		}
	}

	out := s.results[:0]
	for _, e := range pool {
		if len(out) == k {
			break
		}
		if int(e.id) < len(p.Tombstones) && p.Tombstones[e.id] {
			continue
		}
		if p.Filter != nil && !p.Filter(int(e.id)) {
			continue
		}
		r := Result{ID: int(e.id), IP: e.ip}
		if p.Breakdown {
			r.PerModality = Breakdown(weights, query, s.store.Multi(int(e.id)))
		}
		out = append(out, r)
	}
	s.results = out
	return out, stats, nil
}

// Breakdown computes the per-modality contributions ω_i²·IP_i of Lemma 1
// between query and cand, in the same distance formulation the routing
// uses (ω_i²·(1 − ½‖q_i − u_i‖²) on normalized vectors), so the
// contributions sum to the joint IP up to rounding.
func Breakdown(w vec.Weights, query, cand vec.Multi) []float32 {
	out := make([]float32, len(cand))
	for i := range cand {
		if i >= len(w) || w[i] == 0 {
			continue
		}
		w2 := w[i] * w[i]
		out[i] = w2 * (1 - 0.5*vec.SquaredL2(query[i], cand[i]))
	}
	return out
}

// IDs extracts the object IDs of results, in rank order.
func IDs(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// CloneResults copies results out of a Searcher's reusable buffer, for
// callers that need them to survive the searcher's next call.
func CloneResults(rs []Result) []Result {
	return append([]Result(nil), rs...)
}

// ModalityView re-wraps multi-vector objects as single-modality objects so
// the same Searcher machinery can serve MR's per-modality indexes.
func ModalityView(objects []vec.Multi, modality int) []vec.Multi {
	out := make([]vec.Multi, len(objects))
	for i, o := range objects {
		out[i] = vec.Multi{o[modality]}
	}
	return out
}
