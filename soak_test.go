package must

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"must/internal/faultfs"
)

// TestSoakChurnSelfHeals is the long-running robustness proof, gated
// behind MUST_SOAK=1 (MUST_SOAK_DURATION overrides the churn phase
// length, default 60s):
//
//  1. pre window: 95/5 search/insert+delete churn against a durable
//     sharded engine with maintenance paused — the pre-rebuild p99;
//  2. rebuild window: same churn with maintenance resumed — paced
//     rebuilds must fire, and search p99 must stay within 2x the
//     pre-rebuild p99;
//  3. fault: a faultfs-injected WAL failure lands on a maintenance
//     rebuild, poisoning the durable service (writes refused by design);
//  4. recovery: restart (replay the WAL), resume maintenance, and
//     assert the engine converges — tombstones drained, zero
//     maintenance debt, searches clean.
func TestSoakChurnSelfHeals(t *testing.T) {
	if os.Getenv("MUST_SOAK") == "" {
		t.Skip("set MUST_SOAK=1 to run the soak test")
	}
	churnFor := 60 * time.Second
	if d, err := time.ParseDuration(os.Getenv("MUST_SOAK_DURATION")); err == nil && d > 0 {
		churnFor = d
	}
	const S = 3
	// Race instrumentation makes graph construction ~10x slower, so the
	// same pacing would leave rebuilds hogging CPU near-constantly and
	// the p99 bound would measure the detector, not the engine: shrink
	// the corpus and stretch the rebuild gap when -race is on.
	corpus, rebuildGap := 3000, time.Second
	if raceDetectorOn {
		corpus, rebuildGap = 1200, 2*time.Second
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	ffs := faultfs.Wrap(faultfs.OS)
	ds, _, err := OpenDurable(newDurableEngine(t, S), walDir, DurableOptions{fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < corpus; i++ {
		if _, err := ds.Insert(durableRandObject(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Build(); err != nil {
		t.Fatal(err)
	}

	queries := make([]NamedVectors, 256)
	for i := range queries {
		queries[i] = durableRandObject(rng)
	}
	search := func(i int) error {
		_, err := ds.Search(context.Background(), Query{Vectors: queries[i%len(queries)], K: 10})
		return err
	}

	p99 := func(lats []time.Duration) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[int(0.99*float64(len(lats)-1))]
	}

	// Phases 1+2 — one continuous 95/5 churn stream split into two
	// windows: maintenance PAUSED (pre-rebuild baseline), then RESUMED
	// (paced rebuilds live). Same workload either side, so the p99 delta
	// isolates exactly what the rebuilds cost.
	o := fastMaint()
	o.Interval = 20 * time.Millisecond
	o.MinRebuildGap = rebuildGap
	o.OverlayWatermark = 0.10
	o.TombstoneWatermark = 0.10
	m := StartMaintenance(ds, o)
	m.Pause()

	var (
		stop      atomic.Bool
		during    atomic.Bool // false: pre window, true: rebuilds live
		churnErrs atomic.Int64
		mu        sync.Mutex
		preLats   []time.Duration
		durLats   []time.Duration
		wg        sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(31 + int64(w)))
			for i := w; !stop.Load(); i++ {
				if wrng.Float64() < 0.05 {
					id, err := ds.Insert(durableRandObject(wrng))
					if err == nil {
						err = ds.Delete(id)
					}
					if err != nil {
						churnErrs.Add(1)
					}
					continue
				}
				d := during.Load()
				start := time.Now()
				if err := search(i); err != nil {
					churnErrs.Add(1)
					continue
				}
				el := time.Since(start)
				mu.Lock()
				if d {
					durLats = append(durLats, el)
				} else {
					preLats = append(preLats, el)
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(churnFor / 4)
	during.Store(true)
	m.Resume()
	time.Sleep(3 * churnFor / 4)
	stop.Store(true)
	wg.Wait()
	pre := p99(preLats)
	dur := p99(durLats)
	rebuilds := m.Rebuilds()
	t.Logf("churn: pre-rebuild p99 %v (%d samples), during-rebuild p99 %v (%d samples), %d maintenance rebuilds, %d errors",
		pre, len(preLats), dur, len(durLats), rebuilds, churnErrs.Load())
	if rebuilds == 0 {
		t.Fatal("no maintenance rebuild fired during churn")
	}
	if churnErrs.Load() > 0 {
		t.Fatalf("%d churn errors", churnErrs.Load())
	}
	// The acceptance bound, with a floor so microsecond-scale baselines
	// don't turn scheduler noise into flakes.
	bound := 2 * pre
	if floor := 2 * time.Millisecond; bound < floor {
		bound = floor
	}
	if dur > bound {
		t.Fatalf("search p99 during paced rebuilds %v > %v (2x pre-rebuild p99 %v)", dur, bound, pre)
	}

	// Phase 3 — a WAL fault lands on a maintenance rebuild. Build debt
	// first so the very next WAL append is the rebuild record.
	m.Pause()
	for i := 0; i < corpus/10; i++ {
		id, err := ds.Insert(durableRandObject(rng))
		if err == nil {
			err = ds.Delete(id)
		}
		if err != nil {
			t.Fatalf("debt churn: %v", err)
		}
	}
	diskGone := errors.New("soak: disk fault")
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Err: diskGone})
	m.Resume()
	m.Kick()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && m.Stats().Failures == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Stats().Failures == 0 {
		t.Fatal("injected WAL fault never failed a maintenance rebuild")
	}
	m.Close()
	// The service is now poisoned (by design: the engine is ahead of the
	// log). Searches still answer; writes refuse.
	if err := search(0); err != nil {
		t.Fatalf("search on poisoned service: %v", err)
	}
	_ = ds.Close() // close may surface the injected fault; restart is the recovery

	// Phase 4 — restart: replay the WAL (the failed rebuild was never
	// logged, so replay is clean), resume maintenance, converge.
	ffs.Clear()
	ds2, replayed, err := OpenDurable(newDurableEngine(t, S), walDir, DurableOptions{fs: ffs})
	if err != nil {
		t.Fatalf("restart after fault: %v", err)
	}
	defer ds2.Close()
	t.Logf("restarted: replayed %d records, %d objects, %d tombstones", replayed, ds2.Len(), ds2.Deleted())
	dirtyOnRestart := ds2.Deleted() > 0
	m2 := StartMaintenance(ds2, o)
	defer m2.Close()
	deadline = time.Now().Add(30 * time.Second)
	// Converged = every shard under both watermarks, judged on the shard
	// stats themselves (the manager's debt gauge reads 0
	// before its first sample, so it alone would pass vacuously).
	converged := func() bool {
		for _, info := range ds2.ShardStats() {
			if info.Stats.TombstoneRatio >= o.TombstoneWatermark ||
				info.Stats.OverlayRatio >= o.OverlayWatermark {
				return false
			}
		}
		return m2.Stats().Debt == 0
	}
	for time.Now().Before(deadline) && !converged() {
		time.Sleep(10 * time.Millisecond)
	}
	if !converged() {
		t.Fatalf("engine did not converge: %+v %+v", m2.Stats(), ds2.ShardStats())
	}
	if dirtyOnRestart && m2.Rebuilds() == 0 && ds2.Deleted() > 0 {
		t.Fatal("restart left debt but maintenance never rebuilt")
	}
	if _, err := ds2.Search(context.Background(), Query{Vectors: queries[0], K: 10}); err != nil {
		t.Fatalf("search after recovery: %v", err)
	}
	t.Logf("converged: %+v", m2.Stats())
}
