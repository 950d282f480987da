package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"must"
	"must/internal/graph"
	"must/internal/index"
	"must/internal/search"
	"must/internal/server"
	"must/internal/shard"
	"must/internal/vec"
	"must/internal/wal"
)

// rungs times direct calls into each layer's exported functions on the
// workload's own fixture — the ladder below the serving tier. Each rung is
// a span in the trace and one or more per-layer metrics.
type rungs struct {
	tr     *tracer
	parent int // the enclosing "ladder" span
	budget time.Duration
	m      map[string]float64
}

// minRungSamples keeps a median meaningful when one call outlasts the budget.
const minRungSamples = 9

var sink float32 // defeats dead-code elimination of the kernel rungs

// perCall times every call of fn on its own (for calls of tens of µs and
// up) until the budget is spent, and returns the durations in µs.
func (r *rungs) perCall(name string, fn func(i int) error) (summary, error) {
	var durs []float64
	start := time.Now()
	for i := 0; i < minRungSamples || time.Since(start) < r.budget; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return summary{}, fmt.Errorf("%s: %w", name, err)
		}
		durs = append(durs, us(time.Since(t0)))
	}
	r.tr.add(name, r.parent, 0, r.tr.since(start), r.tr.since(time.Now()), false)
	return summarize(durs), nil
}

// perBatch times batches of n calls (for ns-scale kernels, where one clock
// read would dominate one call) and returns the median ns per call.
func (r *rungs) perBatch(name string, n int, fn func(batch int)) float64 {
	var ns []float64
	start := time.Now()
	for b := 0; b < minRungSamples || time.Since(start) < r.budget; b++ {
		t0 := time.Now()
		fn(b)
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	r.tr.add(name, r.parent, 0, r.tr.since(start), r.tr.since(time.Now()), false)
	return summarize(ns).Median()
}

// rungInput is what the ladder needs from a workload.
type rungInput struct {
	f  *fixture
	sc scale
	// bare is the engine under any durable wrapper: engine.* rungs call it
	// directly, and after churn_durable's WAL is closed it is still whole.
	bare must.Service
	// perShardL is the l of one engine.search_us call: serveL, or serveL/S
	// on the sharded fixture so the total stays 160.
	perShardL int
	bodies    [][]byte // the workload's own search bodies, for server.* rungs
	hot       bool     // bodies are expected cached (serve_hot)
	dir       string   // scratch for WAL, snapshots and saved indexes
}

// runRungs measures every library rung and returns the per-layer metrics
// they produce.
func runRungs(tr *tracer, in rungInput) (map[string]float64, error) {
	start := time.Now()
	r := &rungs{tr: tr, budget: in.sc.rungBudget, m: map[string]float64{}}
	r.parent = tr.add("ladder", 0, 0, tr.since(start), tr.since(start), false)
	defer func() { tr.spans[r.parent-1].EndUS = tr.since(time.Now()) }()

	c := in.f.corpus
	nq := in.sc.checkN
	if nq > len(c.queries) {
		nq = len(c.queries)
	}
	queries := make([]vec.Multi, nq)
	for i := range queries {
		queries[i] = vec.Multi{vec.Normalized(c.queries[i][0]), vec.Normalized(c.queries[i][1])}
	}
	w := vec.Weights(engineWeights)
	store := packStore(c)

	r.vecRungs(store, w, queries)
	fused, err := r.searchRungs(store, w, queries, in.f.seed, in.dir)
	if err != nil {
		return nil, err
	}
	if err := r.sq8Rungs(fused, store, w, queries); err != nil {
		return nil, err
	}
	if err := r.engineRungs(in, queries); err != nil {
		return nil, err
	}
	if err := r.serverRungs(in); err != nil {
		return nil, err
	}
	side, err := genCorpus(in.f.seed, in.sc.sideN, 0, in.sc.checkN+2*durableOps, in.sc.compactDims)
	if err != nil {
		return nil, err
	}
	s4, err := r.shardRungs(side, in.f.seed, nq)
	if err != nil {
		return nil, err
	}
	if err := r.walRungs(store.RowDim()*4, in.dir); err != nil {
		return nil, err
	}
	if err := r.durableRungs(s4, side, in.dir); err != nil {
		return nil, err
	}
	return r.m, nil
}

// packStore lays the corpus out the way Collection.Add does: one packed
// row per object, each modality normalized.
func packStore(c *corpus) *vec.FlatStore {
	st := vec.NewFlatStore(c.schema.Dims(), len(c.objects))
	offs := st.Offsets()
	for _, o := range c.objects {
		row := st.AppendRow()
		for m, v := range o {
			seg := row[offs[m]:offs[m+1]]
			copy(seg, v)
			vec.Normalize(seg)
		}
	}
	return st
}

// scanWindow is how many rows one scan-rung sample visits.
const scanWindow = 2048

// scanThreshold is the serveL-th best joint IP among the window's rows:
// the pool floor a search at l=160 would be scanning against.
func scanThreshold(rows int, fullIP func(i int) float32) float32 {
	ips := make([]float32, rows)
	for i := range ips {
		ips[i] = fullIP(i)
	}
	sort.Slice(ips, func(a, b int) bool { return ips[a] > ips[b] })
	k := serveL
	if k > rows {
		k = rows
	}
	return ips[k-1]
}

func (r *rungs) vecRungs(st *vec.FlatStore, w vec.Weights, queries []vec.Multi) {
	// The dot kernel on 768-d operands that stay in cache: ns per call.
	rng := rand.New(rand.NewSource(1))
	ops := make([][]float32, 64)
	for i := range ops {
		ops[i] = vec.RandUnit(rng, 768)
	}
	const dots = 1024
	r.m["vec.dot_f32_ns_768"] = r.perBatch("vec.Dot", dots, func(b int) {
		var acc float32
		for i := 0; i < dots; i++ {
			acc += vec.Dot(ops[i&63], ops[(i+b)&63])
		}
		sink += acc
	})

	rows := st.Len()
	if rows > scanWindow {
		rows = scanWindow
	}
	// Lemma 4's early exits against a realistic floor, counted off the
	// clock: an early exit returns the partial bound, which differs from
	// the full joint IP.
	var fs vec.FlatScanner
	early, scanned := 0, 0
	for _, q := range queries {
		fs.Reset(st, w, q)
		floor := scanThreshold(rows, func(j int) float32 { return fs.FullIP(st.Row(j)) })
		for j := 0; j < rows; j++ {
			ip, exact := fs.Scan(st.Row(j), floor)
			if !exact && ip != fs.FullIP(st.Row(j)) {
				early++
			}
		}
		scanned += rows
	}
	r.m["vec.flatscan_skip_ratio"] = float64(early) / float64(scanned)
	// The cost of one fully scanned row, visited in random order over the
	// whole store the way graph routing touches it.
	order := rng.Perm(st.Len())
	r.m["vec.flatscan_ns_per_row"] = r.perBatch("vec.FlatScanner.Scan", rows, func(b int) {
		fs.Reset(st, w, queries[b%len(queries)])
		var acc float32
		for j := 0; j < rows; j++ {
			ip, _ := fs.Scan(st.Row(order[(b*rows+j)%len(order)]), -math.MaxFloat32)
			acc += ip
		}
		sink += acc
	})
}

func (r *rungs) searchRungs(st *vec.FlatStore, w vec.Weights, queries []vec.Multi, seed int64, dir string) (*index.Fused, error) {
	t0 := time.Now()
	fused, err := index.BuildFusedStore(st, w, graph.Ours(gamma, 3, seed))
	if err != nil {
		return nil, err
	}
	r.tr.add("index.BuildFusedStore", r.parent, 0, r.tr.since(t0), r.tr.since(time.Now()), false)
	r.m["graph.build_s"] = fused.BuildTime.Seconds()
	r.m["graph.bytes_per_edge"] = float64(fused.SizeBytes()) / float64(fused.Graph.NumEdges())

	route := func(name string, p search.Params) (summary, error) {
		s := fused.NewSearcher()
		return r.perCall(name, func(i int) error {
			_, _, err := s.SearchParams(queries[i%len(queries)], p)
			return err
		})
	}
	at160 := search.Params{K: topK, L: serveL, Optimize: true}
	s160, err := route("search.SearchParams/l=160", at160)
	if err != nil {
		return nil, err
	}
	r.m["search.route_us_l160"] = s160.Median()
	s400, err := route("search.SearchParams/l=400", search.Params{K: topK, L: 400, Optimize: true})
	if err != nil {
		return nil, err
	}
	r.m["search.route_us_l400"] = s400.Median()

	// One pass of the check sample on a fresh searcher: the counts depend
	// only on the seed, so they repeat exactly.
	s := fused.NewSearcher()
	var hops, evals, skips int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, q := range queries {
		_, st, err := s.SearchParams(q, at160)
		if err != nil {
			return nil, err
		}
		hops += st.Hops
		evals += st.FullEvals
		skips += st.PartialSkips
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(queries))
	r.m["search.hops_per_query"] = float64(hops) / n
	r.m["search.full_evals_per_query"] = float64(evals) / n
	r.m["search.partial_skip_ratio"] = float64(skips) / float64(evals+skips)
	r.m["search.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / n

	path := filepath.Join(dir, "fused.idx")
	var save, load []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fused.Save(path); err != nil {
			return nil, err
		}
		save = append(save, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := index.Load(path, st); err != nil {
			return nil, err
		}
		load = append(load, time.Since(t0).Seconds())
	}
	r.m["index.save_s"] = median(save)
	r.m["index.load_s"] = median(load)
	return fused, os.Remove(path)
}

func (r *rungs) sq8Rungs(fused *index.Fused, st *vec.FlatStore, w vec.Weights, queries []vec.Multi) error {
	st.EnableSQ8()
	st.SyncSQ8()
	q8 := st.SQ8()
	r.m["vec.sq8_bytes_per_row"] = float64(st.QuantizedBytes()) / float64(st.Len())

	rows := st.Len()
	if rows > scanWindow {
		rows = scanWindow
	}
	var qs vec.SQ8Scanner
	order := rand.New(rand.NewSource(1)).Perm(st.Len())
	r.m["vec.sq8scan_ns_per_row"] = r.perBatch("vec.SQ8Scanner.Scan", rows, func(b int) {
		qs.Reset(st, w, queries[b%len(queries)])
		var acc float32
		for j := 0; j < rows; j++ {
			ip, _ := qs.Scan(q8.Row(order[(b*rows+j)%len(order)]), -math.MaxFloat32)
			acc += ip
		}
		sink += acc
	})

	s := fused.NewSearcher()
	sq, err := r.perCall("search.SearchParams/sq8/l=160", func(i int) error {
		_, _, err := s.SearchParams(queries[i%len(queries)], search.Params{K: topK, L: serveL, Optimize: true, Quantized: true})
		return err
	})
	r.m["search.sq8_route_us_l160"] = sq.Median()
	return err
}

func (r *rungs) engineRungs(in rungInput, queries []vec.Multi) error {
	ctx := context.Background()
	c := in.f.corpus
	es, err := r.perCall("Engine.Search/l=160", func(i int) error {
		_, err := in.bare.Search(ctx, query(c.queries[i%len(queries)], in.perShardL))
		return err
	})
	if err != nil {
		return err
	}
	r.m["engine.search_us"] = es.Median()
	// Read lock, searcher pool, query conversion, breakdown and response
	// assembly (and, on the sharded fixture, the fan-out and merge), over
	// the routing the engine is configured for.
	route := r.m["search.route_us_l160"]
	if in.bare.Quantized() {
		route = r.m["search.sq8_route_us_l160"]
	}
	r.m["engine.overhead_us"] = es.Median() - route
	ex, err := r.perCall("Engine.ExactSearch", func(i int) error {
		_, err := in.bare.ExactSearch(ctx, query(c.queries[i%len(queries)], 0))
		return err
	})
	if err != nil {
		return err
	}
	r.m["engine.exact_search_us"] = ex.Median()
	// Bare inserts of unseen vectors (the query pool's), last: they mutate
	// the fixture.
	ins, err := r.perCall("Engine.InsertObject", func(i int) error {
		_, err := in.bare.InsertObject(must.Object(c.queries[i%len(c.queries)]))
		return err
	})
	if err != nil {
		return err
	}
	r.m["engine.insert_us"] = ins.Median()
	return nil
}

func (r *rungs) serverRungs(in rungInput) error {
	srv := server.New(in.bare, server.Config{})
	defer srv.Close()
	h := srv.Handler()
	serve := func(body []byte) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, opPaths[opSearch], bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return rec, nil
	}
	bodies := in.bodies
	if len(bodies) > 256 {
		bodies = bodies[:256]
	}
	if in.hot {
		// serve_hot's bodies are answered from the cache in traffic; fill
		// it so the rung times the path the workload takes.
		for _, b := range bodies {
			if _, err := serve(b); err != nil {
				return err
			}
		}
	}
	hs, err := r.perCall("server.Handler.ServeHTTP", func(i int) error {
		_, err := serve(bodies[i%len(bodies)])
		return err
	})
	if err != nil {
		return err
	}
	r.m["server.handler_us"] = hs.Median()

	rec, err := serve(bodies[0])
	if err != nil {
		return err
	}
	var resp server.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return err
	}
	reqs := make([]server.SearchRequest, len(bodies))
	dec, err := r.perCall("json.Unmarshal(SearchRequest)", func(i int) error {
		return json.Unmarshal(bodies[i%len(bodies)], &reqs[i%len(bodies)])
	})
	if err != nil {
		return err
	}
	r.m["server.json_decode_us"] = dec.Median()
	enc, err := r.perCall("json.Marshal(SearchResponse)", func(int) error {
		_, err := json.Marshal(&resp)
		return err
	})
	if err != nil {
		return err
	}
	r.m["server.json_encode_us"] = enc.Median()
	cenc, err := r.perCall("json.Marshal(SearchRequest)", func(i int) error {
		_, err := json.Marshal(&reqs[i%len(reqs)])
		return err
	})
	if err != nil {
		return err
	}
	r.m["client.encode_us"] = cenc.Median()
	return nil
}

// shardRungs searches one compact corpus through S = 1, 2 and 4 shards at
// the same total l, and merges captured per-shard lists directly. It
// returns the S=4 engine for the durable rungs.
func (r *rungs) shardRungs(side *corpus, seed int64, nq int) (*must.ShardedEngine, error) {
	ctx := context.Background()
	var s4 *must.ShardedEngine
	for _, s := range []int{1, 2, 4} {
		se, err := newSharded(side, s, seed)
		if err != nil {
			return nil, err
		}
		sm, err := r.perCall(fmt.Sprintf("ShardedEngine.Search/S=%d", s), func(i int) error {
			_, err := se.Search(ctx, query(side.queries[i%nq], serveL/s))
			return err
		})
		if err != nil {
			return nil, err
		}
		r.m[fmt.Sprintf("shard.search_us_s%d", s)] = sm.Median()
		s4 = se
	}
	// Per-shard lists as a fan-out would hand them to the merge: the top
	// 4·k of each query dealt round-robin into four sorted lists of k.
	captured := make([][][]must.ScoredMatch, nq)
	for i := range captured {
		q := query(side.queries[i], serveL)
		q.K = shards * topK
		resp, err := s4.Search(ctx, q)
		if err != nil {
			return nil, err
		}
		lists := make([][]must.ScoredMatch, shards)
		for j, m := range resp.Matches {
			lists[j%shards] = append(lists[j%shards], m)
		}
		captured[i] = lists
	}
	const merges = 256
	r.m["shard.merge_us"] = r.perBatch("shard.MergeTopK", merges, func(b int) {
		for i := 0; i < merges; i++ {
			out := shard.MergeTopK(captured[(b+i)%nq], topK, func(a, b must.ScoredMatch) bool {
				return a.Similarity > b.Similarity
			})
			sink += out[0].Similarity
		}
	}) / 1000
	return s4, nil
}

// walRungs appends records of one object's size under both fsync
// policies. The fsync latency is this sandbox's file system's, not a
// device's.
func (r *rungs) walRungs(recordBytes int, dir string) error {
	payload := make([]byte, recordBytes)
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncOff} {
		name := "wal.append_us_fsync_" + policy.String()
		wdir := filepath.Join(dir, "wal-"+policy.String())
		l, err := wal.Open(wdir, wal.Options{Policy: policy})
		if err != nil {
			return err
		}
		n := 0
		sm, err := r.perCall("wal.Log.Append/fsync="+policy.String(), func(i int) error {
			n++
			return l.Append(wal.Record{Op: wal.OpInsert, Epoch: uint64(i + 1), Data: payload})
		})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		r.m[name] = sm.Median()
		if policy == wal.SyncAlways {
			var onDisk int64
			segs, err := os.ReadDir(wdir)
			if err != nil {
				return err
			}
			for _, e := range segs {
				info, err := e.Info()
				if err != nil {
					return err
				}
				onDisk += info.Size()
			}
			r.m["wal.bytes_per_user_byte"] = float64(onDisk) / float64(n*recordBytes)
		}
		if err := os.RemoveAll(wdir); err != nil {
			return err
		}
	}
	return nil
}

// durableOps is how many inserts the durable rungs time on each side.
const durableOps = 200

// durableRungs compares bare and WAL-wrapped inserts on the S=4 side
// engine, then recovers it from snapshot + WAL.
func (r *rungs) durableRungs(se *must.ShardedEngine, side *corpus, dir string) error {
	fresh := side.queries[len(side.queries)-2*durableOps:]
	timeInserts := func(name string, svc must.Service, objs []vec.Multi) (float64, error) {
		durs := make([]float64, len(objs))
		start := time.Now()
		for i, o := range objs {
			t0 := time.Now()
			if _, err := svc.InsertObject(must.Object(o)); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			durs[i] = us(time.Since(t0))
		}
		r.tr.add(name, r.parent, 0, r.tr.since(start), r.tr.since(time.Now()), false)
		return summarize(durs).Median(), nil
	}
	bare, err := timeInserts("ShardedEngine.InsertObject", se, fresh[:durableOps])
	if err != nil {
		return err
	}
	snap := filepath.Join(dir, "side.snap")
	wdir := filepath.Join(dir, "side-wal")
	if err := must.WriteSnapshot(se, snap); err != nil {
		return err
	}
	d, _, err := must.OpenDurable(se, wdir, must.DurableOptions{Fsync: "always"})
	if err != nil {
		return err
	}
	logged, err := timeInserts("DurableService.InsertObject", d, fresh[durableOps:])
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.m["durable.insert_overhead_us"] = logged - bare

	t0 := time.Now()
	restored, err := must.LoadService(snap)
	if err != nil {
		return err
	}
	t1 := time.Now()
	d2, replayed, err := must.OpenDurable(restored, wdir, must.DurableOptions{Fsync: "always"})
	if err != nil {
		return err
	}
	t2 := time.Now()
	r.tr.add("must.OpenDurable(recover)", r.parent, 0, r.tr.since(t0), r.tr.since(t2), false)
	if err := d2.Close(); err != nil {
		return err
	}
	if replayed != durableOps || restored.Len() != se.Len() {
		return fmt.Errorf("durable rung: replayed %d records to %d objects, want %d and %d", replayed, restored.Len(), durableOps, se.Len())
	}
	r.m["durable.recover_s"] = t2.Sub(t0).Seconds()
	r.m["durable.replay_us_per_record"] = us(t2.Sub(t1)) / float64(replayed)
	if err := os.Remove(snap); err != nil {
		return err
	}
	return os.RemoveAll(wdir)
}
