package must

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitUntil polls cond up to 5s — maintenance runs on its own clock, so
// e2e assertions are convergence checks, not instant ones.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fastMaint returns options that make the loop converge in test time.
func fastMaint() MaintenanceOptions {
	return MaintenanceOptions{
		Interval:           2 * time.Millisecond,
		MinRebuildGap:      time.Millisecond,
		OverlayWatermark:   0.20,
		TombstoneWatermark: 0.20,
	}
}

// TestMaintenanceAutoRebuildsSingleEngine is the headline contract:
// churn past the tombstone watermark and the engine compacts itself
// with NO caller Rebuild.
func TestMaintenanceAutoRebuildsSingleEngine(t *testing.T) {
	e := newSingle(t, shardedObjects(100, 1), true)
	for id := int64(0); id < 30; id++ {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	m := StartMaintenance(e, fastMaint())
	defer m.Close()
	waitUntil(t, "auto-rebuild to clear tombstones", func() bool {
		return e.Deleted() == 0 && m.Rebuilds() >= 1
	})
	st := m.Stats()
	if !st.Enabled || st.LastUnit != 0 {
		t.Fatalf("MaintStats = %+v, want enabled with last_unit 0", st)
	}
	// The compacted engine still answers.
	resp, err := e.Search(context.Background(), Query{Vectors: shardedQueries(1, 2)[0], K: 5})
	if err != nil || len(resp.Matches) == 0 {
		t.Fatalf("search after auto-rebuild: %v (%d matches)", err, len(resp.Matches))
	}
}

// TestMaintenanceRebuildsOnlyTheDirtyShard: one hot shard crosses the
// watermark; maintenance rebuilds it shard-by-shard and leaves clean
// shards' epochs untouched.
func TestMaintenanceRebuildsOnlyTheDirtyShard(t *testing.T) {
	const S = 4
	s := newSharded(t, shardedObjects(400, 1), S, true)
	for id := int64(1); id < 400 && s.Deleted() < 30; id += S {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	epochsBefore := make([]uint64, S)
	for j, info := range s.ShardStats() {
		epochsBefore[j] = info.Epoch
	}
	m := StartMaintenance(s, fastMaint())
	defer m.Close()
	waitUntil(t, "dirty shard auto-rebuild", func() bool {
		return s.Deleted() == 0 && m.Rebuilds() >= 1
	})
	if got := m.Stats().LastUnit; got != 1 {
		t.Fatalf("last rebuilt unit = %d, want the dirty shard 1", got)
	}
	for j, info := range s.ShardStats() {
		if j == 1 {
			continue
		}
		if info.Epoch != epochsBefore[j] {
			t.Fatalf("clean shard %d epoch moved %d -> %d (maintenance must touch only the dirty shard)",
				j, epochsBefore[j], info.Epoch)
		}
	}
}

// TestMaintenancePauseResumeLive: Pause freezes rebuild decisions while
// pressure accumulates; Resume drains it.
func TestMaintenancePauseResumeLive(t *testing.T) {
	e := newSingle(t, shardedObjects(100, 1), true)
	m := StartMaintenance(e, fastMaint())
	defer m.Close()
	m.Pause()
	for id := int64(0); id < 30; id++ {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "debt sampled while paused", func() bool { return m.Stats().Debt == 1 })
	if m.Rebuilds() != 0 || e.Deleted() == 0 {
		t.Fatal("paused maintainer rebuilt anyway")
	}
	m.Resume()
	m.Kick()
	waitUntil(t, "resume drains the debt", func() bool { return e.Deleted() == 0 })
}

// TestDurableRebuildShardReplay: a RebuildShard through the durable
// wrapper is WAL-logged (OpRebuildShard) and replay reproduces the
// exact state — same epoch sequence, same bits — including writes
// interleaved around the shard rebuild.
func TestDurableRebuildShardReplay(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	ds, _, err := OpenDurable(newDurableEngine(t, 3), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ids := make([]int64, 0, 90)
	for i := 0; i < 90; i++ {
		id, err := ds.Insert(durableRandObject(rng))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := ds.Build(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ids); i += 3 {
		if err := ds.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.RebuildShard(1); err != nil {
		t.Fatal(err)
	}
	// Writes after the shard rebuild must replay on top of it.
	for i := 0; i < 12; i++ {
		if _, err := ds.Insert(durableRandObject(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.RebuildShard(2); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, replayed, err := OpenDurable(newDurableEngine(t, 3), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if replayed == 0 {
		t.Fatal("nothing replayed")
	}
	sameCorpus(t, ds, ds2)
	// The replayed service keeps working where the original left off.
	if _, err := ds2.Insert(durableRandObject(rng)); err != nil {
		t.Fatalf("insert after replay: %v", err)
	}
}

// TestDurableRebuildShardOnUnsharded: a one-shard service has exactly
// one shard to rebuild — RebuildShard(0) compacts it and is logged and
// replayed like on any shard count — and refuses every other index
// without logging it.
func TestDurableRebuildShardOnUnsharded(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.ShardCount() != 1 {
		t.Fatalf("ShardCount = %d, want 1", ds.ShardCount())
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		if _, err := ds.Insert(durableRandObject(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Build(); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 40; id += 4 {
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.RebuildShard(1); err == nil {
		t.Fatal("RebuildShard(1) on a one-shard service succeeded")
	}
	if err := ds.RebuildShard(0); err != nil {
		t.Fatal(err)
	}
	if ds.Deleted() != 0 {
		t.Fatalf("RebuildShard(0) left %d tombstones", ds.Deleted())
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	sameCorpus(t, ds, ds2)
	if ds2.Deleted() != 0 {
		t.Fatalf("replay left %d tombstones", ds2.Deleted())
	}
}

// TestMaintenanceDurableReplayEquivalence: maintenance-initiated
// rebuilds go through the durable write path, so a service that
// self-healed replays to the same state as one that never restarted.
func TestMaintenanceDurableReplayEquivalence(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	ds, _, err := OpenDurable(newDurableEngine(t, 2), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	ids := make([]int64, 0, 80)
	for i := 0; i < 80; i++ {
		id, err := ds.Insert(durableRandObject(rng))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := ds.Build(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ids); i += 3 {
		if err := ds.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	m := StartMaintenance(ds, fastMaint())
	waitUntil(t, "maintenance rebuild through the WAL", func() bool {
		return ds.Deleted() == 0 && m.Rebuilds() >= 1
	})
	m.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, _, err := OpenDurable(newDurableEngine(t, 2), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	sameCorpus(t, ds, ds2)
}

// TestShardedRebuildChurnRace hammers a sharded engine with concurrent
// Insert/Delete/Search while rebuilds (whole-engine and per-shard) run —
// the exact interleaving background maintenance creates. Run under
// -race this is the PR's memory-safety proof for the maintenance path.
func TestShardedRebuildChurnRace(t *testing.T) {
	const S = 3
	s := newSharded(t, shardedObjects(240, 1), S, true)
	var (
		stop atomic.Bool
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(240)
	rng := rand.New(rand.NewSource(21))
	objs := shardedObjects(64, 5)
	queries := shardedQueries(8, 9)
	_ = rng

	// Writers: insert fresh objects, delete a sliding window.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.InsertObject(objs[int(next.Add(1))%len(objs)]); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				id := next.Load() - 40
				if id >= 0 {
					// Concurrent deletes may race on the same id or hit one a
					// rebuild just compacted away; both are fine — only data
					// races and corruption are failures here.
					_ = s.Delete(id % next.Load())
				}
			}
		}(w)
	}
	// Searchers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := Query{Vectors: queries[(w+i)%len(queries)], K: 5}
				if _, err := s.Search(context.Background(), q); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(w)
	}
	// Maintenance-shaped rebuild loop: alternate shard and full rebuilds.
	deadline := time.Now().Add(800 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		var err error
		if i%4 == 3 {
			err = s.Rebuild()
		} else {
			err = s.RebuildShard(i % S)
		}
		if err != nil {
			t.Errorf("rebuild %d: %v", i, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	// The engine must still be coherent: search answers, stats add up.
	if _, err := s.Search(context.Background(), Query{Vectors: queries[0], K: 5}); err != nil {
		t.Fatalf("search after churn: %v", err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects <= 0 {
		t.Fatalf("stats after churn: %+v", st)
	}
}

// TestStatsMaintenanceRatios: the new Stats fields used by the
// maintenance loop must be populated and summed across shards.
func TestStatsMaintenanceRatios(t *testing.T) {
	const S = 2
	s := newSharded(t, shardedObjects(200, 1), S, true)
	for id := int64(0); id < 20; id++ {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		if _, err := s.InsertObject(Object{randVec(rng, 24), randVec(rng, 12)}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TombstoneRatio <= 0 {
		t.Fatalf("TombstoneRatio = %v, want > 0 after deletes", st.TombstoneRatio)
	}
	// Overlay inserts create one overlay vertex each plus back-edge
	// entries on the existing vertices they wire into, so the count is
	// at least the number of inserts.
	if st.OverlayVertices < 10 || st.OverlayRatio <= 0 {
		t.Fatalf("overlay = %d/%v, want >= 10 vertices after overlay inserts", st.OverlayVertices, st.OverlayRatio)
	}
	for j, info := range s.ShardStats() {
		if info.Stats.TombstoneRatio <= 0 {
			t.Fatalf("shard %d TombstoneRatio = %v, want > 0", j, info.Stats.TombstoneRatio)
		}
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	st, err = s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TombstoneRatio != 0 || st.OverlayRatio != 0 {
		t.Fatalf("ratios after rebuild = %v/%v, want 0/0", st.TombstoneRatio, st.OverlayRatio)
	}
}
