package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"must"
	"must/internal/dataset"
	"must/internal/encoder"
	"must/internal/server"
	"must/internal/vec"
)

// scale sizes the fixtures and pools. fullScale is what the driver runs;
// smokeScale keeps `go test ./...` to a few seconds.
type scale struct {
	clipN, compactN int // corpus sizes
	clipDims        [2]int
	compactDims     [2]int
	checkN          int // check-sample queries of the HTTP workloads
	sweepCheckN     int // check-sample queries of the recall sweeps
	wireN           int // check queries searched exhaustively over the wire
	readPool        int // distinct serve_read queries (must exceed the cache)
	hotPool         int // distinct serve_hot queries (must fit the cache)
	churnPool       int // churn_durable search queries; insertable objects of both durable workloads
	setups          int // untraced set-ups per run; the median is reported
	sideN           int // compact corpus of the shard/WAL rungs
	rungBudget      time.Duration
	minRebuilds     uint64 // a durable workload reports itself unsettled below this
}

// The ISSUE's 16,000×768 fixture builds in ~6 s on this 2-core box; the
// driver's time budget (a run, with three set-ups, must fit ~25 s) halves it.
// 8,000 rows × 3 KB is still 24 MB, far beyond L2, so the scan stays
// bandwidth-bound.
var fullScale = scale{
	clipN: 8000, compactN: 8000,
	clipDims: [2]int{512, 256}, compactDims: [2]int{64, 32},
	checkN: 256, sweepCheckN: 1024, wireN: 32,
	readPool: 8192, hotPool: 1024, churnPool: 4096,
	setups: 3, sideN: 4000,
	rungBudget:  250 * time.Millisecond,
	minRebuilds: 4,
}

var smokeScale = scale{
	clipN: 512, compactN: 512,
	clipDims: [2]int{512, 256}, compactDims: [2]int{64, 32},
	checkN: 32, sweepCheckN: 64, wireN: 8,
	readPool: 256, hotPool: 64, churnPool: 256,
	setups: 1, sideN: 256,
	rungBudget: 4 * time.Millisecond,
}

const (
	topK   = 10
	serveL = 160 // the serving operating point; recall_at_10 is taken here
	gamma  = 24
	shards = 4
)

var engineWeights = must.Weights{0.8, 0.6}

// corpus is one seeded data set: objects, a query pool, and spare objects
// for inserts. The engine sees nothing else.
type corpus struct {
	schema  must.Schema
	objects []vec.Multi // index = engine ID after set-up
	queries []vec.Multi
	spare   []vec.Multi
}

// genCorpus draws n+spare objects and nq queries from the ImageText
// feature distribution and embeds them with CLIP-shaped simulated encoders
// (the bench_test.go clipFixture recipe, at the requested dims).
func genCorpus(seed int64, n, spare, nq int, dims [2]int) (*corpus, error) {
	cfg := dataset.ImageTextN(n+spare, seed)
	cfg.NumQueries = nq
	raw, err := dataset.GenerateFeature(cfg)
	if err != nil {
		return nil, err
	}
	enc, err := dataset.Encode(raw, dataset.EncoderSet{Unimodal: []encoder.Encoder{
		encoder.New(encoder.Spec{Name: "CLIP-ViT", LatentDim: raw.ContentDim, Dim: dims[0], Sigma: encoder.SigmaResNet50, Seed: seed ^ 0xc11b}),
		encoder.New(encoder.Spec{Name: "Transformer", LatentDim: raw.AttrDim, Dim: dims[1], Sigma: encoder.SigmaTransformer, Seed: seed ^ 0x7f5}),
	}})
	if err != nil {
		return nil, err
	}
	c := &corpus{
		schema:  must.Schema{{Name: "image", Dim: dims[0]}, {Name: "text", Dim: dims[1]}},
		objects: enc.Objects[:n],
		spare:   enc.Objects[n:],
		queries: make([]vec.Multi, nq),
	}
	for i, q := range enc.Queries {
		c.queries[i] = q.Vectors
	}
	return c, nil
}

func named(v vec.Multi) must.NamedVectors {
	return must.NamedVectors{"image": v[0], "text": v[1]}
}

func query(v vec.Multi, l int) must.Query {
	return must.Query{Vectors: named(v), K: topK, L: l}
}

func engineOptions(seed int64) must.EngineOptions {
	return must.EngineOptions{
		Weights: engineWeights,
		Build:   must.BuildOptions{Gamma: gamma, Seed: seed},
	}
}

// load inserts the corpus objects in order (so engine ID == object index,
// for one engine and for any shard count) and builds the graph.
func load(svc must.Service, objects []vec.Multi, build bool) error {
	for i, o := range objects {
		id, err := svc.InsertObject(must.Object(o))
		if err != nil {
			return fmt.Errorf("insert object %d: %w", i, err)
		}
		if id != int64(i) {
			return fmt.Errorf("object %d got id %d: ids are not dense", i, id)
		}
	}
	if build {
		return svc.Build()
	}
	return nil
}

func newEngine(c *corpus, seed int64, build bool) (*must.Engine, error) {
	e, err := must.NewEngine(c.schema, engineOptions(seed))
	if err != nil {
		return nil, err
	}
	return e, load(e, c.objects, build)
}

func newSharded(c *corpus, s int, seed int64) (*must.ShardedEngine, error) {
	e, err := must.NewShardedEngine(c.schema, s, engineOptions(seed))
	if err != nil {
		return nil, err
	}
	return e, load(e, c.objects, true)
}

// httpServer is internal/server mounted the way cmd/mustd mounts it: a
// net/http.Server on a loopback listener in this process, server.Config
// defaults (batching 64×1 ms, cache 4096).
type httpServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(svc must.Service, m *must.Maintainer) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(svc, server.Config{})
	if m != nil {
		srv.AttachMaintainer(m)
	}
	h := &httpServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// stop drains the listener and the batcher and waits for Serve to return.
func (h *httpServer) stop() error {
	h.srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	h.srv.Close()
	if serveErr := <-h.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// fixture is one workload's system under test.
type fixture struct {
	corpus *corpus
	seed   int64
	svc    must.Service // what searches and writes go to
	http   *httpServer  // nil for the library workloads

	// churn_durable and write_durable only.
	durable  *must.DurableService
	maint    *must.Maintainer
	dir      string // holds the snapshot and the WAL
	snapshot string
	walDir   string
}

// setUp generates the workload's corpus, builds its engine and starts its
// server; the elapsed time of this function is setup_s.
func setUp(workload string, sc scale, seed int64, outDir string) (*fixture, error) {
	switch workload {
	case wServeRead, wServeHot, wRecallSweep, wRecallSQ8:
		nq := sc.sweepCheckN
		switch workload {
		case wServeRead:
			nq = sc.checkN + sc.readPool
		case wServeHot:
			nq = sc.checkN + sc.hotPool
		}
		c, err := genCorpus(seed, sc.clipN, 0, nq, sc.clipDims)
		if err != nil {
			return nil, err
		}
		eng, err := newEngine(c, seed, true)
		if err != nil {
			return nil, err
		}
		f := &fixture{corpus: c, seed: seed, svc: eng}
		if workload == wRecallSQ8 {
			if err := eng.EnableQuantization(0); err != nil {
				return nil, err
			}
		}
		if workload == wServeRead || workload == wServeHot {
			if f.http, err = startServer(eng, nil); err != nil {
				return nil, err
			}
		}
		return f, nil
	case wChurn:
		return setUpDurable(sc, seed, outDir, sc.checkN+sc.churnPool)
	case wWrite:
		return setUpDurable(sc, seed, outDir, sc.checkN)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// setUpDurable builds compact×S=4, snapshots it, wraps it durable
// (fsync=always) on a fresh WAL, and starts maintenance and the server —
// mustd's -shards 4 -wal -maint start-up sequence.
func setUpDurable(sc scale, seed int64, outDir string, nq int) (*fixture, error) {
	c, err := genCorpus(seed, sc.compactN, sc.churnPool, nq, sc.compactDims)
	if err != nil {
		return nil, err
	}
	se, err := newSharded(c, shards, seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "durable-")
	if err != nil {
		return nil, err
	}
	f := &fixture{
		corpus: c, seed: seed, dir: dir,
		snapshot: filepath.Join(dir, "engine.snap"),
		walDir:   filepath.Join(dir, "wal"),
	}
	if err := must.WriteSnapshot(se, f.snapshot); err != nil {
		return nil, err
	}
	if f.durable, _, err = must.OpenDurable(se, f.walDir, must.DurableOptions{Fsync: "always"}); err != nil {
		return nil, err
	}
	f.svc = f.durable
	// The ISSUE's 0.10 watermarks. One insert moves its whole neighbourhood
	// into the graph overlay, so a shard is past 0.10 within a few dozen
	// inserts and the rebuild gap alone paces maintenance; it and the
	// sampling interval are shortened from mustd's 10 s / 1 s so that a run
	// of a few seconds sees several rebuilds instead of at most one.
	f.maint = must.StartMaintenance(f.durable, must.MaintenanceOptions{
		Interval:           100 * time.Millisecond,
		MinRebuildGap:      1500 * time.Millisecond,
		OverlayWatermark:   0.10,
		TombstoneWatermark: 0.10,
		Seed:               seed,
	})
	if f.http, err = startServer(f.durable, f.maint); err != nil {
		return nil, err
	}
	return f, nil
}

// stopServing stops the server and maintenance and closes the WAL without
// a checkpoint; the files stay for the recovery check.
func (f *fixture) stopServing() error {
	var err error
	if f.http != nil {
		err = f.http.stop()
		f.http = nil
	}
	if f.maint != nil {
		f.maint.Close()
		f.maint = nil
	}
	if f.durable != nil {
		if cerr := f.durable.Close(); err == nil {
			err = cerr
		}
		f.durable = nil
	}
	return err
}

// close releases everything the fixture holds, files included.
func (f *fixture) close() error {
	err := f.stopServing()
	if f.dir != "" {
		if rerr := os.RemoveAll(f.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// groundTruth is the exact top-k of each query under the service's current
// corpus and weights.
func groundTruth(svc must.Service, qs []vec.Multi) ([][]int, error) {
	ctx := context.Background()
	gt := make([][]int, len(qs))
	for i, q := range qs {
		resp, err := svc.ExactSearch(ctx, query(q, 0))
		if err != nil {
			return nil, fmt.Errorf("exact search %d: %w", i, err)
		}
		gt[i] = matchIDs(resp.Matches)
	}
	return gt, nil
}

// matchIDs lists result IDs as ints, the type metrics.Recall compares.
func matchIDs(ms []must.ScoredMatch) []int {
	ids := make([]int, len(ms))
	for i, m := range ms {
		ids[i] = int(m.ID)
	}
	return ids
}
