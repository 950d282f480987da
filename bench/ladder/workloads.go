package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"must"
	"must/internal/metrics"
	"must/internal/server"
	"must/internal/vec"
)

// runConfig is one run of one workload.
type runConfig struct {
	sc      scale
	seed    int64
	seconds float64
	traced  bool
	outDir  string // where trace files go
	tmpDir  string // scratch for WAL segments, snapshots, saved indexes
	// corruptExpected makes the wire check expect a wrong ID, to show that
	// a failed correctness check fails the run (ladder_test.go).
	corruptExpected bool
}

func (c runConfig) window(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// warmUp is the discarded window before the timed one.
func (c runConfig) warmUp() time.Duration {
	w := c.window(0.1)
	if w > time.Second {
		w = time.Second
	}
	return w
}

// runResult is what one run reports.
type runResult struct {
	workload    string
	traced      bool
	attempted   int
	failed      int
	metrics     map[string]float64
	notes       []string    // failed checks (with the offending query index), unsettled warnings
	ladder      []ladderRow // of a search, HTTP workloads
	writeLadder []ladderRow // of an acked insert, durable workloads
	tracePath   string
}

func (r *runResult) failf(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absorb folds a load window's operation counts into the result.
func (r *runResult) absorb(l *loadResult) {
	r.attempted += l.attempted
	r.failed += l.failed
	if l.firstErr != nil {
		r.notef("FAIL: %d of %d operations failed, first: %v", l.failed, l.attempted, l.firstErr)
	}
}

// latencyMetrics sets the three end-to-end latency percentiles, noting any
// that has too few samples beyond it to be trusted.
func (r *runResult) latencyMetrics(lat summary) {
	r.notef("op latency (ms): %s", lat)
	for _, q := range []struct {
		name string
		p    float64
	}{{mP50, 0.5}, {mP90, 0.9}, {mP99, 0.99}} {
		v, ok := lat.Quantile(q.p)
		r.metrics[q.name] = v
		if !ok {
			r.notef("unsettled: %s has fewer than %d of %d samples beyond it", q.name, minBeyond, lat.N())
		}
	}
}

// minRecall is the correctness gate on recall@10 at the serving l.
const minRecall = 0.90

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(name string, cfg runConfig) (*runResult, error) {
	switch name {
	case wServeRead, wServeHot, wChurn, wWrite:
		return runHTTP(name, cfg)
	case wRecallSweep, wRecallSQ8:
		return runSweep(name, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setUpMedian sets the workload up cfg.sc.setups times, tearing all but the
// last down again, and returns the last fixture and the median set-up time.
// A traced run reports no setup_s and sets up once.
func setUpMedian(workload string, cfg runConfig) (*fixture, float64, error) {
	n := cfg.sc.setups
	if cfg.traced {
		n = 1
	}
	var (
		f     *fixture
		times []float64
	)
	for i := 0; i < n; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, 0, err
			}
			f = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if f, err = setUp(workload, cfg.sc, cfg.seed, cfg.tmpDir); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return f, median(times), nil
}

// encodePool marshals one search body per query, the way a Go client of
// mustd would, on all cores.
func encodePool(qs []vec.Multi, l int) [][]byte {
	out := make([][]byte, len(qs))
	var wg sync.WaitGroup
	n := workers()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += n {
				out[i] = searchBody(qs[i], l)
			}
		}(w)
	}
	wg.Wait()
	return out
}

func searchBody(q vec.Multi, l int) []byte {
	b, err := json.Marshal(server.SearchRequest{Vectors: named(q), K: topK, L: l})
	if err != nil {
		panic(err) // float slices and ints always marshal
	}
	return b
}

// cycleSource walks the pool in order: with a pool larger than the result
// cache an LRU never sees a key again before evicting it, so every search
// reaches the engine.
type cycleSource struct {
	bodies [][]byte
	next_  atomic.Int64
}

func (s *cycleSource) next(int) request {
	i := s.next_.Add(1) - 1
	return request{kind: opSearch, body: s.bodies[int(i)%len(s.bodies)]}
}

func (s *cycleSource) acked(int, request, []int64) {}

// zipfSource draws from a pool that fits the cache with Zipf(s=1.1)
// popularity, one generator per worker.
type zipfSource struct {
	bodies [][]byte
	zipf   []*rand.Zipf
}

func newZipfSource(bodies [][]byte, seed int64) *zipfSource {
	s := &zipfSource{bodies: bodies}
	for w := 0; w < workers(); w++ {
		rng := rand.New(rand.NewSource(seed + int64(w)*7919))
		s.zipf = append(s.zipf, rand.NewZipf(rng, 1.1, 1, uint64(len(bodies)-1)))
	}
	return s
}

func (s *zipfSource) next(w int) request {
	return request{kind: opSearch, body: s.bodies[s.zipf[w].Uint64()]}
}

func (s *zipfSource) acked(int, request, []int64) {}

// mixSource is a search/insert/delete mix: 80/10/10 on churn_durable, 0/50/50
// on write_durable. Each worker owns a residue class of the spare objects
// (to insert) and of the initial corpus IDs (to delete when none of its own
// inserts is left), so workers never race on an ID, and because a worker
// deletes its own oldest insert first the corpus size holds.
type mixSource struct {
	pInsert, pDelete float64 // the rest are searches
	searches         [][]byte
	inserts          [][]byte // one body per spare object
	initial          int64    // IDs [0, initial) exist at set-up
	w                []mixWorker
}

type liveInsert struct {
	id    int64
	spare int
}

type mixWorker struct {
	rng       *rand.Rand
	searchPos int
	sparePos  int          // inserts issued; walks this worker's spare class cyclically
	initPos   int64        // initial IDs of this worker's class already deleted
	live      []liveInsert // acked inserts not yet deleted, oldest first
	liveSpare map[int]bool // spare objects currently in the corpus
	inserted  map[int64]int
	deleted   []int64
}

func newMixSource(pInsert, pDelete float64, searches, inserts [][]byte, initial int, seed int64) *mixSource {
	s := &mixSource{pInsert: pInsert, pDelete: pDelete, searches: searches, inserts: inserts, initial: int64(initial)}
	for w := 0; w < workers(); w++ {
		s.w = append(s.w, mixWorker{
			rng:       rand.New(rand.NewSource(seed + int64(w)*104729)),
			liveSpare: make(map[int]bool),
			inserted:  make(map[int64]int),
		})
	}
	return s
}

// insert hands out the worker's next spare object, unless its previous copy
// is still in the corpus: a twin would tie with it exactly and make result
// order ambiguous.
func (s *mixSource) insert(w int) (request, bool) {
	cw := &s.w[w]
	n := len(s.w)
	class := (len(s.inserts) - w + n - 1) / n
	i := w + n*(cw.sparePos%class)
	if cw.liveSpare[i] {
		return request{}, false
	}
	cw.sparePos++
	return request{kind: opInsert, body: s.inserts[i], tag: int64(i)}, true
}

func (s *mixSource) delete(w int) (request, bool) {
	cw := &s.w[w]
	var id int64
	if len(cw.live) > 0 {
		id = cw.live[0].id
	} else if id = int64(w) + int64(len(s.w))*cw.initPos; id >= s.initial {
		return request{}, false
	}
	body := strconv.AppendInt([]byte(`{"ids":[`), id, 10)
	return request{kind: opDelete, body: append(body, "]}"...), tag: id}, true
}

func (s *mixSource) next(w int) request {
	cw := &s.w[w]
	p := cw.rng.Float64()
	if p < s.pInsert {
		if req, ok := s.insert(w); ok {
			return req
		}
	}
	// A refused insert becomes a delete, which frees the twin in its way.
	if p < s.pInsert+s.pDelete {
		if req, ok := s.delete(w); ok {
			return req
		}
	}
	if len(s.searches) == 0 {
		// Write-only mix with nothing left to delete, so nothing of this
		// worker's is live and an insert cannot be refused.
		req, _ := s.insert(w)
		return req
	}
	cw.searchPos++
	return request{kind: opSearch, body: s.searches[(w+len(s.w)*cw.searchPos)%len(s.searches)]}
}

func (s *mixSource) acked(w int, req request, ids []int64) {
	cw := &s.w[w]
	switch req.kind {
	case opInsert:
		cw.inserted[ids[0]] = int(req.tag)
		cw.live = append(cw.live, liveInsert{ids[0], int(req.tag)})
		cw.liveSpare[int(req.tag)] = true
	case opDelete:
		if len(cw.live) > 0 && cw.live[0].id == req.tag {
			delete(cw.liveSpare, cw.live[0].spare)
			cw.live = cw.live[1:]
		} else {
			cw.initPos++
		}
		cw.deleted = append(cw.deleted, req.tag)
	}
}

// prefill sends every body once, so a cache that can hold the pool holds it.
func prefill(base string, bodies [][]byte) error {
	n := workers()
	hc := newHTTPClient(n)
	defer hc.CloseIdleConnections()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bodies) && errs[w] == nil; i += n {
				_, errs[w] = searchOnce(hc, base, bodies[i])
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runHTTP runs one of the closed-loop HTTP workloads.
func runHTTP(workload string, cfg runConfig) (*runResult, error) {
	res := &runResult{workload: workload, traced: cfg.traced, metrics: map[string]float64{}}
	f, setupS, err := setUpMedian(workload, cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()
	built, err := f.svc.Stats()
	if err != nil {
		return nil, err
	}
	c := f.corpus
	checkQ, poolQ := c.queries[:cfg.sc.checkN], c.queries[cfg.sc.checkN:]
	l := serveL
	bare := f.svc
	if f.durable != nil {
		l = serveL / shards // l applies per shard; the total stays 160
		bare = f.durable.Service
	}
	bodies := encodePool(poolQ, l)

	var (
		src source
		mix *mixSource
	)
	switch workload {
	case wServeRead:
		src = &cycleSource{bodies: bodies}
	case wServeHot:
		if err := prefill(f.http.url, bodies); err != nil {
			return nil, err
		}
		src = newZipfSource(bodies, cfg.seed)
	case wChurn, wWrite:
		if err := checkShardedExact(res, f, checkQ); err != nil {
			return nil, err
		}
		inserts := make([][]byte, len(c.spare))
		for i, o := range c.spare {
			if inserts[i], err = json.Marshal(server.InsertRequest{Vectors: named(o)}); err != nil {
				return nil, err
			}
		}
		if workload == wChurn {
			mix = newMixSource(0.1, 0.1, bodies, inserts, len(c.objects), cfg.seed)
		} else {
			mix = newMixSource(0.5, 0.5, nil, inserts, len(c.objects), cfg.seed)
		}
		src = mix
	}

	hc := newHTTPClient(workers())
	defer hc.CloseIdleConnections()
	runLoad(f.http.url, src, cfg.warmUp(), false)

	var (
		timed    *loadResult
		tr       *tracer
		overhead float64
		before   *server.StatsResponse
	)
	if cfg.traced {
		// The same workload twice: untraced for the reference rate, then
		// traced for the spans.
		plain := runLoad(f.http.url, src, cfg.window(0.5), false)
		res.absorb(plain)
		if before, err = serverStats(hc, f.http.url); err != nil {
			return nil, err
		}
		tr = newTracer()
		windowStart := time.Now()
		timed = runLoad(f.http.url, src, cfg.window(0.5), true)
		tr.addRequests(windowStart, timed.records)
		if rate := plain.opsPerS(); rate > 0 {
			overhead = 1 - timed.opsPerS()/rate
		}
	} else {
		timed = runLoad(f.http.url, src, cfg.window(1), false)
	}
	res.absorb(timed)
	if timed.attempted == timed.failed {
		return nil, fmt.Errorf("%s: no operation succeeded: %v", workload, timed.firstErr)
	}

	after, err := serverStats(hc, f.http.url)
	if err != nil {
		return nil, err
	}
	recall, err := checkWire(res, cfg, f, hc, checkQ, l)
	if err != nil {
		return nil, err
	}
	st, err := f.svc.Stats()
	if err != nil {
		return nil, err
	}
	var maintStats must.MaintStats
	if f.maint != nil {
		maintStats = f.maint.Stats()
		if maintStats.Rebuilds < cfg.sc.minRebuilds {
			res.notef("unsettled: maintenance completed %d rebuilds, fewer than %d", maintStats.Rebuilds, cfg.sc.minRebuilds)
		}
	}
	if mix != nil {
		if err := f.stopServing(); err != nil {
			return nil, err
		}
		if err := checkRecovery(res, f, mix); err != nil {
			return nil, err
		}
	}

	if !cfg.traced {
		res.metrics[mSetup] = setupS
		res.metrics[mOpsPerS] = timed.opsPerS()
		res.latencyMetrics(summarize(timed.allLatencies()))
		res.metrics[mRecall] = recall
		// As built: after churn the ratio depends on where the arena's
		// growth and the last rebuild happened to stand when the window
		// closed (the traced run reports that as engine.index_bytes_..._end).
		res.metrics[mIdxBytes] = indexBytesPerRawByte(built)
		return res, nil
	}

	trafficMetrics(res, timed, before, after)
	res.metrics["engine.index_bytes_per_raw_byte_end"] = indexBytesPerRawByte(st)
	res.metrics["trace.overhead_ratio"] = overhead
	res.metrics["maint.rebuilds"] = float64(maintStats.Rebuilds)
	res.metrics["maint.failures"] = float64(maintStats.Failures)
	res.metrics["maint.debt_end"] = float64(maintStats.Debt)
	res.metrics["maint.overlay_ratio_end"] = st.OverlayRatio
	res.metrics["maint.tombstone_ratio_end"] = st.TombstoneRatio
	rungBodies := bodies
	if len(rungBodies) == 0 { // write_durable sends no searches of its own
		rungBodies = encodePool(checkQ, l)
	}
	rung, err := runRungs(tr, rungInput{
		f: f, sc: cfg.sc, bare: bare, perShardL: l,
		bodies: rungBodies, hot: workload == wServeHot, dir: cfg.tmpDir,
	})
	if err != nil {
		return nil, err
	}
	for k, v := range rung {
		res.metrics[k] = v
	}
	if len(timed.latMS[opSearch]) > 0 {
		dims := c.schema.Dims()
		res.ladder = ladderRows(res.metrics, timed, float64(dims[0])/float64(dims[0]+dims[1]), mix == nil)
	}
	if len(timed.latMS[opInsert]) > 0 {
		res.writeLadder = writeLadderRows(res.metrics)
	}
	if res.tracePath, err = tr.write(cfg.outDir, workload); err != nil {
		return nil, err
	}
	return res, nil
}

func indexBytesPerRawByte(st must.Stats) float64 {
	return float64(st.CorpusBytes+st.SizeBytes+st.QuantizedBytes) / float64(st.RawVectorBytes)
}

// checkShardedExact is the sharded == unsharded gate on the compact corpus
// before churn: exact search over four shards must return the IDs a single
// engine returns, in order.
func checkShardedExact(res *runResult, f *fixture, qs []vec.Multi) error {
	single, err := newEngine(f.corpus, f.seed, false) // exact search needs no graph
	if err != nil {
		return err
	}
	want, err := groundTruth(single, qs)
	if err != nil {
		return err
	}
	got, err := groundTruth(f.svc, qs)
	if err != nil {
		return err
	}
	for i := range qs {
		res.attempted++
		if !slices.Equal(got[i], want[i]) {
			res.failf("query %d: sharded exact search %v != unsharded %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkWire is the serving tier's correctness gate, run on the idle server
// after the timed window. (1) Exhaustive searches (l = corpus size, which
// makes Algorithm 2 deterministic) must return over HTTP exactly the IDs a
// direct Search returns, in order. (2) recall@10 of HTTP searches at the
// serving l against ExactSearch over the corpus as it now is must reach
// minRecall; the mean is the workload's recall_at_10.
func checkWire(res *runResult, cfg runConfig, f *fixture, hc *http.Client, qs []vec.Multi, l int) (float64, error) {
	ctx := context.Background()
	all := f.svc.Len() + f.svc.Deleted()
	for i := 0; i < cfg.sc.wireN && i < len(qs); i++ {
		res.attempted++
		direct, err := f.svc.Search(ctx, query(qs[i], all))
		if err != nil {
			return 0, err
		}
		want := matchIDs(direct.Matches)
		if cfg.corruptExpected && i == 0 {
			want[0]++
		}
		got, err := searchOnce(hc, f.http.url, searchBody(qs[i], all))
		if err != nil {
			res.failf("query %d: exhaustive HTTP search: %v", i, err)
			continue
		}
		if !slices.Equal(got, want) {
			res.failf("query %d: HTTP %v != direct Search %v", i, got, want)
		}
	}
	gt, err := groundTruth(f.svc, qs)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i, q := range qs {
		res.attempted++
		got, err := searchOnce(hc, f.http.url, searchBody(q, l))
		if err != nil {
			res.failf("query %d: HTTP search: %v", i, err)
			continue
		}
		sum += metrics.Recall(got, gt[i])
	}
	recall := sum / float64(len(qs))
	if recall < minRecall {
		res.failf("recall@10 %.4f at l=%d is below %.2f", recall, l, minRecall)
	}
	return recall, nil
}

// checkRecovery reopens the churned service from its set-up snapshot plus
// the WAL (no checkpoint was taken) and demands acked == recovered: every
// acked insert not since deleted resolves to the vector that was sent,
// every acked delete is gone, and the object count matches.
func checkRecovery(res *runResult, f *fixture, src *mixSource) error {
	t0 := time.Now()
	restored, err := must.LoadService(f.snapshot)
	if err != nil {
		return err
	}
	d, replayed, err := must.OpenDurable(restored, f.walDir, must.DurableOptions{Fsync: "always"})
	if err != nil {
		return err
	}
	defer d.Close()
	res.notef("recovered from snapshot + %d WAL records in %.3f s", replayed, time.Since(t0).Seconds())

	want := len(f.corpus.objects)
	for w := range src.w {
		cw := &src.w[w]
		gone := make(map[int64]bool, len(cw.deleted))
		for _, id := range cw.deleted {
			gone[id] = true
			res.attempted++
			if _, err := d.Object(id); !errors.Is(err, must.ErrUnknownID) {
				res.failf("acked delete of id %d survived recovery (Object error: %v)", id, err)
			}
		}
		for id, spare := range cw.inserted {
			if gone[id] {
				continue
			}
			res.attempted++
			got, err := d.Object(id)
			if err != nil {
				res.failf("acked insert id %d lost in recovery: %v", id, err)
				continue
			}
			sent := vec.Normalized(f.corpus.spare[spare][0])
			if cos := vec.Dot(got["image"], sent); math.Abs(float64(cos)-1) > 1e-4 {
				res.failf("acked insert id %d recovered a different vector (cosine %.6f)", id, cos)
			}
		}
		want += len(cw.inserted) - len(cw.deleted)
	}
	res.attempted++
	if d.Len() != want {
		res.failf("recovered %d objects, acked operations imply %d", d.Len(), want)
	}
	return nil
}

// trafficMetrics derives the per-layer metrics a traced load window shows:
// the client's own timestamps and the fields every reply already carries.
func trafficMetrics(res *runResult, l *loadResult, before, after *server.StatsResponse) {
	m := res.metrics
	var queue, transport, engine, decode []float64
	searches, partial, batched, batchSum := 0, 0, 0, 0
	for _, r := range l.records {
		decode = append(decode, us(r.total-r.rt))
		if r.kind != opSearch {
			continue
		}
		searches++
		transport = append(transport, us(r.rt)-r.queryMS*1000)
		if r.partial {
			partial++
		}
		if r.cached {
			queue = append(queue, r.queryMS)
			continue
		}
		queue = append(queue, r.queryMS-r.engineMS)
		engine = append(engine, r.engineMS*1000)
		if r.batch > 0 {
			batched++
			batchSum += r.batch
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["server.queue_batch_ms"] = median(queue)
	m["server.batch_size_mean"] = ratio(float64(batchSum), float64(batched))
	hits := float64(after.Server.CacheHits - before.Server.CacheHits)
	misses := float64(after.Server.CacheMisses - before.Server.CacheMisses)
	m["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["server.shed_ratio"] = ratio(float64(l.shed), float64(l.attempted))
	m["http.transport_us"] = median(transport)
	m["shard.partial_ratio"] = ratio(float64(partial), float64(searches))
	m["engine.search_span_us"] = median(engine)
	m["client.decode_us"] = median(decode)

	search, insert := summarize(l.latMS[opSearch]), summarize(l.latMS[opInsert])
	m["client.search_p50_ms"] = search.Median()
	m["client.search_p99_ms"], _ = search.Quantile(0.99)
	m["client.insert_ack_p50_ms"] = insert.Median()
	m["client.insert_ack_p99_ms"], _ = insert.Quantile(0.99)
	m["client.insert_per_s"] = ratio(float64(insert.N()), l.elapsed.Seconds())

	// Attribution: the client's median search latency minus the median self
	// time of every span under it. Per request the self times add up
	// exactly; the residue is what medians of parts fail to say about the
	// median of the whole.
	var only []record
	for _, r := range l.records {
		if r.kind == opSearch {
			only = append(only, r)
		}
	}
	tr := newTracer()
	tr.addRequests(tr.origin, only)
	attributed := 0.0
	for _, self := range selfTimes(tr.spans) {
		attributed += median(self)
	}
	m["client.unattributed_us"] = search.Median()*1000 - attributed
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ladderRows lays a served search out as a ladder: each rung's time and,
// by indentation, the rung it is a share of. The rungs down to
// engine.search come from the traced window. Those below it are the library
// rungs, which describe the same search only when engine.search is one
// graph walk at l=160: not on the sharded fixture (its span is the slowest
// shard's l=40 walk) and not when every reply was cached.
func ladderRows(m map[string]float64, l *loadResult, firstShare float64, oneGraph bool) []ladderRow {
	var rt, query []float64
	for _, r := range l.records {
		if r.kind == opSearch {
			rt = append(rt, us(r.rt))
			query = append(query, r.queryMS*1000)
		}
	}
	rows := []ladderRow{
		{0, "client.request (search p50)", m["client.search_p50_ms"] * 1000, ""},
		{1, "client.decode", m["client.decode_us"], ""},
		{1, "http.roundtrip", median(rt), ""},
		{2, "http transport + response encode (self)", m["http.transport_us"], fmt.Sprintf("response JSON encode alone: %.1f us", m["server.json_encode_us"])},
		{2, "server.total (query_time_ms)", median(query), ""},
		{3, "decode + cache + batch wait (self)", m["server.queue_batch_ms"] * 1000, fmt.Sprintf("request JSON decode alone: %.1f us", m["server.json_decode_us"])},
		{3, "engine.search (engine_time_ms)", m["engine.search_span_us"], ""},
	}
	if !oneGraph || m["engine.search_span_us"] == 0 {
		return rows
	}
	// A Lemma-4 skip stops after the first modality, a full evaluation
	// scans the whole row; skips = evals·ratio/(1−ratio).
	evals, ratio := m["search.full_evals_per_query"], m["search.partial_skip_ratio"]
	rowsScanned := evals
	if ratio < 1 {
		rowsScanned += evals * ratio / (1 - ratio) * firstShare
	}
	return append(rows,
		ladderRow{4, "engine overhead (rung)", m["engine.overhead_us"], "Engine.Search minus SearchParams, one caller"},
		ladderRow{4, "search.route l=160 (rung)", m["search.route_us_l160"], "SearchParams, one caller"},
		ladderRow{5, "vec.flatscan kernel", rowsScanned * m["vec.flatscan_ns_per_row"] / 1000, "(full evals + skips x first-modality share) x flatscan_ns_per_row"},
	)
}

// writeLadderRows lays an acked insert out the same way. The server returns
// no timings for a write, so below the client's median everything is a
// one-caller rung; the rest is HTTP, JSON and — with as many writers as
// clients — waiting for the other client's write, since DurableService
// applies and logs one mutation at a time.
func writeLadderRows(m map[string]float64) []ladderRow {
	ack := m["client.insert_ack_p50_ms"] * 1000
	durable := m["engine.insert_us"] + m["durable.insert_overhead_us"]
	return []ladderRow{
		{0, "client insert ack (p50)", ack, ""},
		{1, "durable insert (rungs, one caller)", durable, ""},
		{2, "engine insert", m["engine.insert_us"], "InsertObject on the bare engine"},
		{2, "WAL append + fsync", m["durable.insert_overhead_us"], fmt.Sprintf("durable minus bare insert; wal.Log.Append alone: %.1f us", m["wal.append_us_fsync_always"])},
		{1, "HTTP, JSON, waiting for the other writer", ack - durable, ""},
	}
}

// sweepGrid is the l axis of the recall sweeps: fine around the recall 0.95
// crossing (l ≈ 30 on this corpus), plus the serving point.
var sweepGrid = []int{16, 24, 32, 40, 56, serveL}

const (
	recallTarget = 0.95
	sweepSlice   = 50 * time.Millisecond
)

// gridPoint is what a sweep window measured at one l.
type gridPoint struct {
	l     int
	latMS []float64
	busy  time.Duration
}

func (g gridPoint) usPerQuery() float64 {
	if len(g.latMS) == 0 {
		return 0
	}
	return us(g.busy) / float64(len(g.latMS))
}

// sweepWindow searches from one goroutine for dur, visiting the grid
// round-robin in short slices so that drift (a GC cycle, a noisy
// neighbour) lands on every l alike. Whole rounds only: every l gets the
// same time.
func sweepWindow(eng must.Service, qs []vec.Multi, dur time.Duration, onCall func(l int, start time.Time, d time.Duration)) ([]gridPoint, error) {
	ctx := context.Background()
	points := make([]gridPoint, len(sweepGrid))
	for i, l := range sweepGrid {
		points[i].l = l
	}
	slice := dur / time.Duration(4*len(sweepGrid)) // at least four rounds
	if slice > sweepSlice {
		slice = sweepSlice
	}
	start := time.Now()
	qi := 0
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		for i := range points {
			p := &points[i]
			sliceStart := time.Now()
			for time.Since(sliceStart) < slice {
				t0 := time.Now()
				resp, err := eng.Search(ctx, query(qs[qi%len(qs)], p.l))
				d := time.Since(t0)
				if err != nil {
					return nil, err
				}
				if len(resp.Matches) != topK {
					return nil, fmt.Errorf("l=%d query %d: %d matches, want %d", p.l, qi%len(qs), len(resp.Matches), topK)
				}
				p.latMS = append(p.latMS, ms(d))
				if onCall != nil {
					onCall(p.l, t0, d)
				}
				qi++
			}
			p.busy += time.Since(sliceStart)
		}
	}
	return points, nil
}

// usAtRecall interpolates the time per query at the recall target along
// the measured (recall, time) curve. If the smallest l already reaches the
// target its time is returned; ok is false if no l does.
func usAtRecall(recalls, usPerQuery []float64, target float64) (float64, bool) {
	for i, r := range recalls {
		if r < target {
			continue
		}
		if i == 0 || recalls[i-1] >= r {
			return usPerQuery[i], true
		}
		t := (target - recalls[i-1]) / (r - recalls[i-1])
		return usPerQuery[i-1] + t*(usPerQuery[i]-usPerQuery[i-1]), true
	}
	return 0, false
}

// runSweep runs a recall sweep: library calls, one goroutine, no server.
func runSweep(workload string, cfg runConfig) (*runResult, error) {
	res := &runResult{workload: workload, traced: cfg.traced, metrics: map[string]float64{}}
	f, setupS, err := setUpMedian(workload, cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()
	qs := f.corpus.queries
	gt, err := groundTruth(f.svc, qs)
	if err != nil {
		return nil, err
	}
	if _, err := sweepWindow(f.svc, qs, cfg.warmUp(), nil); err != nil {
		return nil, err
	}

	var (
		points   []gridPoint
		tr       *tracer
		overhead float64
	)
	rate := func(ps []gridPoint) float64 {
		n, busy := 0, time.Duration(0)
		for _, p := range ps {
			n += len(p.latMS)
			busy += p.busy
		}
		return float64(n) / busy.Seconds()
	}
	if cfg.traced {
		plain, err := sweepWindow(f.svc, qs, cfg.window(0.5), nil)
		if err != nil {
			return nil, err
		}
		tr = newTracer()
		req := 0
		points, err = sweepWindow(f.svc, qs, cfg.window(0.5), func(l int, start time.Time, d time.Duration) {
			if req++; req <= maxTracedRequests {
				s := tr.since(start)
				tr.add("engine.search/l="+strconv.Itoa(l), 0, req, s, s+us(d), false)
			}
		})
		if err != nil {
			return nil, err
		}
		overhead = 1 - rate(points)/rate(plain)
		for _, p := range plain {
			res.attempted += len(p.latMS)
		}
	} else if points, err = sweepWindow(f.svc, qs, cfg.window(1), nil); err != nil {
		return nil, err
	}

	// Recall at every grid point, off the clock.
	ctx := context.Background()
	recalls := make([]float64, len(points))
	times := make([]float64, len(points))
	for i, p := range points {
		res.attempted += len(p.latMS)
		var sum float64
		for qi, q := range qs {
			res.attempted++
			resp, err := f.svc.Search(ctx, query(q, p.l))
			if err != nil {
				return nil, err
			}
			sum += metrics.Recall(matchIDs(resp.Matches), gt[qi])
		}
		recalls[i] = sum / float64(len(qs))
		times[i] = p.usPerQuery()
		res.notef("l=%-4d recall@10=%.4f  %8.1f us/query  %9.1f qps  (n=%d)", p.l, recalls[i], times[i], 1e6/times[i], len(p.latMS))
	}
	serve := points[len(points)-1]
	recall := recalls[len(recalls)-1]
	if recall < minRecall {
		res.failf("recall@10 %.4f at l=%d is below %.2f", recall, serve.l, minRecall)
	}
	atTarget, ok := usAtRecall(recalls, times, recallTarget)
	if !ok {
		res.failf("no l in %v reaches recall@10 %.2f", sweepGrid, recallTarget)
		atTarget = times[len(times)-1]
	}
	st, err := f.svc.Stats()
	if err != nil {
		return nil, err
	}

	if !cfg.traced {
		res.metrics[mSetup] = setupS
		res.metrics[mOpsPerS] = 1e6 / atTarget
		res.latencyMetrics(summarize(serve.latMS))
		res.metrics[mRecall] = recall
		res.metrics[mIdxBytes] = indexBytesPerRawByte(st)
		return res, nil
	}

	// No serving tier, no writes, no maintenance ran: their in-traffic
	// metrics are what an empty window measures, zeros.
	trafficMetrics(res, &loadResult{}, &server.StatsResponse{}, &server.StatsResponse{})
	for _, name := range []string{"maint.rebuilds", "maint.failures", "maint.debt_end", "maint.overlay_ratio_end", "maint.tombstone_ratio_end"} {
		res.metrics[name] = 0
	}
	res.metrics["engine.search_span_us"] = median(serve.latMS) * 1000
	res.metrics["engine.index_bytes_per_raw_byte_end"] = indexBytesPerRawByte(st)
	res.metrics["trace.overhead_ratio"] = overhead
	checkN := cfg.sc.checkN
	if checkN > len(qs) {
		checkN = len(qs)
	}
	rung, err := runRungs(tr, rungInput{
		f: f, sc: cfg.sc, bare: f.svc, perShardL: serveL,
		bodies: encodePool(qs[:checkN], serveL), dir: cfg.tmpDir,
	})
	if err != nil {
		return nil, err
	}
	for k, v := range rung {
		res.metrics[k] = v
	}
	if res.tracePath, err = tr.write(cfg.outDir, workload); err != nil {
		return nil, err
	}
	return res, nil
}
