package must

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var shardedSchema = Schema{{Name: "a", Dim: 24}, {Name: "b", Dim: 12}}

// shardedObjects generates a deterministic corpus in insertion order.
func shardedObjects(n int, seed int64) []Object {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Object, n)
	for i := range out {
		out[i] = Object{randVec(rng, 24), randVec(rng, 12)}
	}
	return out
}

func shardedQueries(nq int, seed int64) []NamedVectors {
	rng := rand.New(rand.NewSource(seed))
	out := make([]NamedVectors, nq)
	for i := range out {
		out[i] = NamedVectors{"a": randVec(rng, 24), "b": randVec(rng, 12)}
	}
	return out
}

// newSharded builds an S-shard engine over objs in insertion order.
func newSharded(t *testing.T, objs []Object, shards int, build bool) *ShardedEngine {
	t.Helper()
	s, err := NewShardedEngine(shardedSchema, shards, EngineOptions{
		Build: BuildOptions{Gamma: 12, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		id, err := s.InsertObject(o)
		if err != nil {
			t.Fatal(err)
		}
		if id != int64(i) {
			t.Fatalf("insert %d assigned global ID %d (want dense sequence)", i, id)
		}
	}
	if build {
		if err := s.Build(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func newSingle(t *testing.T, objs []Object, build bool) *Engine {
	t.Helper()
	e, err := NewEngine(shardedSchema, EngineOptions{
		Build: BuildOptions{Gamma: 12, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if _, err := e.InsertObject(o); err != nil {
			t.Fatal(err)
		}
	}
	if build {
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestShardedExactEquivalence: one corpus, inserted in the same order
// into a NewEngine and into engines of 1, 3, 4 and 7 shards, must answer
// every question the shard count does not enter into identically: exact
// search (IDs, similarity and breakdown bits, objects scanned), learned
// weights (bit for bit), unknown-ID errors, summed stats, a nil context,
// and Rebuild of an all-tombstoned corpus (it succeeds and changes
// nothing). Graph search through either one-shard constructor is the same
// engine, result for result.
func TestShardedExactEquivalence(t *testing.T) {
	objs := shardedObjects(300, 11)
	queries := shardedQueries(20, 12)
	engines := []struct {
		name string
		e    *Engine
	}{
		{"NewEngine", newSingle(t, objs, false)},
		{"S=1", newSharded(t, objs, 1, false)},
		{"S=3", newSharded(t, objs, 3, false)},
		{"S=4", newSharded(t, objs, 4, false)},
		{"S=7", newSharded(t, objs, 7, false)},
	}
	var nilCtx context.Context // every entry point treats nil as Background

	// Training pairs: a noisy copy of positive's target vector, random aux.
	rng := rand.New(rand.NewSource(13))
	var train []NamedVectors
	var positives []int64
	for i := 0; i < 40; i++ {
		id := int64(7 * i)
		a := append([]float32(nil), objs[id][0]...)
		for j := range a {
			a[j] += float32(rng.NormFloat64() * 0.05)
		}
		train = append(train, NamedVectors{"a": a, "b": randVec(rng, 12)})
		positives = append(positives, id)
	}
	var wantW Weights
	want := make([]*Response, len(queries))
	for ei, tc := range engines {
		w, err := tc.e.LearnWeights(train, positives, WeightConfig{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ei == 0 {
			wantW = w
		}
		for i := range w {
			if math.Float32bits(w[i]) != math.Float32bits(wantW[i]) {
				t.Fatalf("%s: learned weights %v, want %v", tc.name, w, wantW)
			}
		}
		for qi, q := range queries {
			got, err := tc.e.ExactSearch(nilCtx, Query{Vectors: q, K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if ei == 0 {
				want[qi] = got
				continue
			}
			if len(got.Matches) != len(want[qi].Matches) {
				t.Fatalf("%s q=%d: %d matches, want %d", tc.name, qi, len(got.Matches), len(want[qi].Matches))
			}
			for i, w := range want[qi].Matches {
				g := got.Matches[i]
				if g.ID != w.ID || math.Float32bits(g.Similarity) != math.Float32bits(w.Similarity) {
					t.Fatalf("%s q=%d rank %d: got (%d, %v), want (%d, %v)",
						tc.name, qi, i, g.ID, g.Similarity, w.ID, w.Similarity)
				}
				for name, ws := range w.ByModality {
					if math.Float32bits(g.ByModality[name]) != math.Float32bits(ws) {
						t.Fatalf("%s q=%d rank %d: modality %s breakdown %v, want %v",
							tc.name, qi, i, name, g.ByModality[name], ws)
					}
				}
			}
			if got.Stats.FullEvals != want[qi].Stats.FullEvals {
				t.Fatalf("%s q=%d: scanned %d objects, want %d", tc.name, qi, got.Stats.FullEvals, want[qi].Stats.FullEvals)
			}
		}
		// A panicking filter is that query's error at every S, never a
		// crash of the process.
		bad := Query{Vectors: queries[0], K: 10, Filter: func(int64) bool { panic("bad filter") }}
		if got, err := tc.e.ExactSearch(nilCtx, bad); err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("%s: ExactSearch with a panicking filter = %v, %v; want a panic error", tc.name, got, err)
		}
	}

	for _, tc := range engines {
		e := tc.e
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
		for _, id := range []int64{-3, int64(len(objs)), 999_999} {
			_, oerr := e.Object(id)
			for what, err := range map[string]error{"Delete": e.Delete(id), "Object": oerr} {
				if !errors.Is(err, ErrUnknownID) || err.Error() != fmt.Sprintf("must: unknown object id %d", id) {
					t.Fatalf("%s: %s(%d) = %v, want the unknown-ID error naming %d", tc.name, what, id, err, id)
				}
			}
		}
		st, err := e.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var sum Stats
		for _, info := range e.ShardStats() {
			sum.Objects += info.Stats.Objects
			sum.Edges += info.Stats.Edges
			sum.SizeBytes += info.Stats.SizeBytes
			sum.CorpusBytes += info.Stats.CorpusBytes
			sum.RawVectorBytes += info.Stats.RawVectorBytes
		}
		if st.Objects != len(objs) || st.Objects != sum.Objects || st.Edges != sum.Edges ||
			st.SizeBytes != sum.SizeBytes || st.CorpusBytes != sum.CorpusBytes || st.RawVectorBytes != sum.RawVectorBytes {
			t.Fatalf("%s: Stats %+v is not the sum of its shards %+v", tc.name, st, sum)
		}
		q := Query{Vectors: queries[0], K: 5}
		if resp, err := e.Search(nilCtx, q); err != nil || len(resp.Matches) != 5 {
			t.Fatalf("%s: Search(nil ctx) = %v, %v", tc.name, resp, err)
		}
		if out, errs := e.SearchEach(nilCtx, []Query{q, q}, 2); errs[0] != nil || errs[1] != nil || len(out[1].Matches) != 5 {
			t.Fatalf("%s: SearchEach(nil ctx) errs %v", tc.name, errs)
		}
	}
	shardedEqualResults(t, engines[0].e, engines[1].e, queries)

	for _, tc := range engines {
		for id := range objs {
			if err := tc.e.Delete(int64(id)); err != nil {
				t.Fatal(err)
			}
		}
		epoch := tc.e.Epoch()
		if err := tc.e.Rebuild(); err != nil {
			t.Fatalf("%s: Rebuild of an all-tombstoned corpus: %v", tc.name, err)
		}
		if tc.e.Len() != 0 || tc.e.Deleted() != len(objs) || tc.e.Epoch() != epoch {
			t.Fatalf("%s: all-tombstoned Rebuild changed the engine: len %d, deleted %d, epoch %d -> %d",
				tc.name, tc.e.Len(), tc.e.Deleted(), epoch, tc.e.Epoch())
		}
	}
}

// ANN recall at equal per-shard L must be at least the single engine's
// (each shard examines up to L candidates of a smaller corpus, so the
// union can only cover more of the true top-k), minus a small tolerance
// for the different graphs.
func TestShardedRecallParity(t *testing.T) {
	const n, nq, k = 1500, 30, 10
	objs := shardedObjects(n, 21)
	queries := shardedQueries(nq, 22)
	single := newSingle(t, objs, true)

	recall := func(got, truth *Response) float64 {
		inTruth := make(map[int64]bool, len(truth.Matches))
		for _, m := range truth.Matches {
			inTruth[m.ID] = true
		}
		hit := 0
		for _, m := range got.Matches {
			if inTruth[m.ID] {
				hit++
			}
		}
		return float64(hit) / float64(len(truth.Matches))
	}

	baseline := 0.0
	truths := make([]*Response, nq)
	for qi, q := range queries {
		truth, err := single.ExactSearch(context.Background(), Query{Vectors: q, K: k})
		if err != nil {
			t.Fatal(err)
		}
		truths[qi] = truth
		got, err := single.Search(context.Background(), Query{Vectors: q, K: k, L: 60})
		if err != nil {
			t.Fatal(err)
		}
		baseline += recall(got, truth)
	}
	baseline /= nq

	for _, S := range []int{4, 7} {
		sharded := newSharded(t, objs, S, true)
		sum := 0.0
		for qi, q := range queries {
			got, err := sharded.Search(context.Background(), Query{Vectors: q, K: k, L: 60})
			if err != nil {
				t.Fatal(err)
			}
			sum += recall(got, truths[qi])
		}
		r := sum / nq
		t.Logf("S=%d recall@%d %.3f (single %.3f)", S, k, r, baseline)
		if r < baseline-0.05 {
			t.Errorf("S=%d recall@%d %.3f below single-engine %.3f - 0.05", S, k, r, baseline)
		}
	}
}

func TestShardedDeleteAndFilterUseGlobalIDs(t *testing.T) {
	objs := shardedObjects(120, 31)
	s := newSharded(t, objs, 4, true)

	// Filter sees global IDs.
	q := Query{Vectors: NamedVectors{"a": objs[6][0], "b": objs[6][1]}, K: 20,
		Filter: func(id int64) bool { return id%2 == 0 }}
	resp, err := s.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("filtered search returned nothing")
	}
	for _, m := range resp.Matches {
		if m.ID%2 != 0 {
			t.Fatalf("filter leaked odd global ID %d", m.ID)
		}
	}

	// Delete routes by global ID and excludes the object from results.
	if err := s.Delete(6); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Search(context.Background(), Query{Vectors: NamedVectors{"a": objs[6][0], "b": objs[6][1]}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Matches {
		if m.ID == 6 {
			t.Fatal("deleted object still in results")
		}
	}

	// Unknown IDs report the caller's global ID and match ErrUnknownID.
	err = s.Delete(999_999)
	if !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown delete: %v", err)
	}
	if err.Error() != "must: unknown object id 999999" {
		t.Fatalf("unknown delete message: %q", err.Error())
	}
	if _, err := s.Object(-3); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("negative object id: %v", err)
	}
}

// Build with fewer objects than shards leaves the empty shards pending;
// the first insert routed to a pending shard builds it lazily so the
// object is immediately searchable, like a post-Build insert on a single
// engine.
func TestShardedLazyBuildOnInsert(t *testing.T) {
	objs := shardedObjects(10, 41)
	s := newSharded(t, objs[:2], 4, true)

	states := func() map[string]int {
		m := map[string]int{}
		for _, si := range s.ShardStats() {
			m[si.State]++
		}
		return m
	}
	if st := states(); st["built"] != 2 || st["pending"] != 2 {
		t.Fatalf("after partial build: %v", st)
	}
	for i, o := range objs[2:] {
		id, err := s.InsertObject(o)
		if err != nil {
			t.Fatal(err)
		}
		if id != int64(2+i) {
			t.Fatalf("post-build insert got ID %d, want %d", id, 2+i)
		}
	}
	if st := states(); st["built"] != 4 {
		t.Fatalf("after lazy builds: %v", st)
	}
	// Every object, including ones inserted into lazily-built shards, is
	// reachable.
	for i, o := range objs {
		resp, err := s.Search(context.Background(), Query{Vectors: NamedVectors{"a": o[0], "b": o[1]}, K: len(objs)})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range resp.Matches {
			if m.ID == int64(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("object %d not reachable", i)
		}
	}
}

// Rebuild compacts tombstones shard by shard; a shard whose objects are
// all tombstoned is skipped rather than emptied.
func TestShardedRebuildCompacts(t *testing.T) {
	const S = 4
	objs := shardedObjects(40, 51)
	s := newSharded(t, objs, S, true)

	// Tombstone all of shard 1 (ids ≡ 1 mod S) and a few others.
	for id := int64(1); id < 40; id += S {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(4); err != nil {
		t.Fatal(err)
	}
	wantLive := 40 - 10 - 2
	if got := s.Len(); got != wantLive {
		t.Fatalf("live %d, want %d", got, wantLive)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// Shards 0,2,3 compacted; shard 1 skipped with its 10 tombstones.
	if got := s.Deleted(); got != 10 {
		t.Fatalf("tombstones after rebuild %d, want 10 (all-dead shard skipped)", got)
	}
	if got := s.Len(); got != wantLive {
		t.Fatalf("live after rebuild %d, want %d", got, wantLive)
	}
	// Surviving IDs stay stable and searchable; deleted ones stay gone.
	resp, err := s.Search(context.Background(), Query{Vectors: NamedVectors{"a": objs[2][0], "b": objs[2][1]}, K: 40})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, m := range resp.Matches {
		seen[m.ID] = true
	}
	if !seen[2] {
		t.Fatal("surviving object 2 unreachable after rebuild")
	}
	for _, dead := range []int64{0, 1, 4, 5} {
		if seen[dead] {
			t.Fatalf("deleted object %d resurfaced after rebuild", dead)
		}
	}

	// Per-shard rebuild hook: out-of-range is an error, in-range compacts.
	if err := s.RebuildShard(S); err == nil {
		t.Fatal("RebuildShard out of range accepted")
	}
	if err := s.RebuildShard(0); err != nil {
		t.Fatal(err)
	}
}

// The summed epoch changes on every mutation, and a mutation bumps only
// the owning shard's epoch.
func TestShardedEpochPerShard(t *testing.T) {
	objs := shardedObjects(20, 61)
	s := newSharded(t, objs, 4, true)
	epochs := func() []uint64 {
		var out []uint64
		for _, info := range s.ShardStats() {
			out = append(out, info.Epoch)
		}
		return out
	}
	before := epochs()
	sumBefore := s.Epoch()
	// Insert 20 routes to shard 20 % 4 = 0.
	if _, err := s.InsertObject(objs[0]); err != nil {
		t.Fatal(err)
	}
	after := epochs()
	if after[0] <= before[0] {
		t.Fatalf("owning shard epoch did not advance: %v -> %v", before, after)
	}
	for j := 1; j < 4; j++ {
		if after[j] != before[j] {
			t.Fatalf("shard %d epoch moved on foreign insert: %v -> %v", j, before, after)
		}
	}
	if s.Epoch() <= sumBefore {
		t.Fatal("summed epoch did not advance")
	}
}

func shardedEqualResults(t *testing.T, a, b *ShardedEngine, queries []NamedVectors) {
	t.Helper()
	for qi, q := range queries {
		ra, err := a.Search(context.Background(), Query{Vectors: q, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Search(context.Background(), Query{Vectors: q, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(ra.Matches) != len(rb.Matches) {
			t.Fatalf("q=%d: %d vs %d matches", qi, len(ra.Matches), len(rb.Matches))
		}
		ma, mb := tiesByID(ra.Matches), tiesByID(rb.Matches)
		for i := range ma {
			if ma[i].ID != mb[i].ID || ma[i].Similarity != mb[i].Similarity {
				t.Fatalf("q=%d rank %d: (%d,%v) vs (%d,%v)", qi, i,
					ma[i].ID, ma[i].Similarity, mb[i].ID, mb[i].Similarity)
			}
		}
	}
}

// tiesByID orders equal-similarity matches by ID. A search draws its
// random seed vertices from its pooled searcher's history, so matches
// that tie (duplicate objects) may come back in either order.
func tiesByID(ms []ScoredMatch) []ScoredMatch {
	ms = slices.Clone(ms)
	slices.SortFunc(ms, func(a, b ScoredMatch) int {
		return cmp.Or(cmp.Compare(b.Similarity, a.Similarity), cmp.Compare(a.ID, b.ID))
	})
	return ms
}

func TestShardedPersistRoundTrip(t *testing.T) {
	objs := shardedObjects(90, 71)
	queries := shardedQueries(10, 72)
	s := newSharded(t, objs, 3, true)
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sharded.bin")
	if err := WriteSnapshot(s, path); err != nil {
		t.Fatal(err)
	}

	// Parallel file load.
	loaded, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ShardCount() != 3 || loaded.Len() != s.Len() || loaded.Deleted() != s.Deleted() {
		t.Fatalf("loaded shape: shards=%d len=%d deleted=%d", loaded.ShardCount(), loaded.Len(), loaded.Deleted())
	}
	shardedEqualResults(t, s, loaded, queries)

	// The round-robin cursor survives: the next insert lands on the same
	// shard and gets the same global ID in both engines.
	idLive, err := s.InsertObject(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	idLoaded, err := loaded.InsertObject(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	if idLive != idLoaded {
		t.Fatalf("post-load insert ID %d, live engine %d", idLoaded, idLive)
	}

	// One reader for every format: MUSTSH1 above; MUSTEG2, which one
	// shard writes whichever constructor made it; and a one-shard MUSTSH1
	// container, which no engine writes any more but which still loads.
	single := newSingle(t, objs[:30], true)
	one := saveBytes(t, newSharded(t, objs[:30], 1, true))
	if !bytes.Equal(one, saveBytes(t, single)) {
		t.Fatal("a one-shard NewShardedEngine does not save the bytes NewEngine saves")
	}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"MUSTSH1", saveBytes(t, s)},
		{"MUSTEG2", one},
		{"one-shard MUSTSH1", shardContainer(7, one)},
	} {
		path := filepath.Join(t.TempDir(), "snap.bin")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		svc, err := LoadService(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := single
		if tc.name == "MUSTSH1" {
			want = s
		}
		if svc.ShardCount() != want.ShardCount() || svc.Len() != want.Len() || svc.Epoch() != want.Epoch() {
			t.Fatalf("%s: loaded %d shards, %d objects at epoch %d; want %d, %d, %d", tc.name,
				svc.ShardCount(), svc.Len(), svc.Epoch(), want.ShardCount(), want.Len(), want.Epoch())
		}
		shardedEqualResults(t, want, svc.(*Engine), queries)
	}
	if _, err := LoadService(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("LoadService of a missing file succeeded")
	}
}

// shardContainer wraps MUSTEG2 blobs in a MUSTSH1 container with insert
// cursor rr.
func shardContainer(rr uint64, blobs ...[]byte) []byte {
	out := append([]byte("MUSTSH1\n"), binary.LittleEndian.AppendUint32(nil, uint32(len(blobs)))...)
	out = binary.LittleEndian.AppendUint64(out, rr)
	for _, b := range blobs {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(b)))
		out = append(out, b...)
	}
	return out
}

func TestShardedPersistCorruptHeader(t *testing.T) {
	objs := shardedObjects(30, 81)
	s := newSharded(t, objs, 3, true)
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	dir := t.TempDir()
	load := func(b []byte) error {
		path := filepath.Join(dir, "corrupt.bin")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadEngine(path)
		return err
	}
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), good...)
		mutate(b)
		return load(b)
	}

	if err := corrupt(func(b []byte) { b[0] = 'X' }); err == nil {
		t.Error("bad magic accepted")
	}
	// Shard count beyond MaxShards must be rejected before any
	// per-shard allocation happens.
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint32(b[8:], 1<<31)
	}); err == nil {
		t.Error("absurd shard count accepted")
	}
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint32(b[8:], 0)
	}); err == nil {
		t.Error("zero shard count accepted")
	}
	// Blob sizes are bounded against the file size before any shard loads.
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint64(b[20:], 1<<40)
	}); err == nil {
		t.Error("blob size beyond file size accepted")
	}
	if err := load(good[:len(good)/2]); err == nil {
		t.Error("truncated container accepted")
	}
	// A size near MaxInt64 must not overflow the bound into a negative
	// end offset: in a one-shard container it used to load as valid.
	one := shardContainer(0, saveBytes(t, newSingle(t, objs, true)))
	binary.LittleEndian.PutUint64(one[20:], math.MaxInt64-10)
	if err := load(one); err == nil {
		t.Error("blob size near MaxInt64 accepted")
	}
}

// A mixed concurrent workload over a sharded engine must be race-free:
// searches, inserts, deletes, rebuilds, stats, and snapshots all at once.
func TestShardedConcurrentMixedWorkload(t *testing.T) {
	objs := shardedObjects(300, 91)
	extra := shardedObjects(200, 92)
	queries := shardedQueries(8, 93)
	s := newSharded(t, objs, 4, true)

	var wg sync.WaitGroup
	// Searchers: single queries and batches.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := Query{Vectors: queries[(w+i)%len(queries)], K: 5}
				if _, err := s.Search(context.Background(), q); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		qs := make([]Query, len(queries))
		for i, q := range queries {
			qs[i] = Query{Vectors: q, K: 5}
		}
		for i := 0; i < 15; i++ {
			_, errs := s.SearchEach(context.Background(), qs, 2)
			for _, err := range errs {
				if err != nil {
					t.Errorf("searchEach: %v", err)
					return
				}
			}
		}
	}()
	// Inserters.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(extra); i += 2 {
				if _, err := s.InsertObject(extra[i]); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	// Deleter: tombstones a slice of the initial corpus (always live).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := int64(0); id < 60; id++ {
			if err := s.Delete(id); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
		}
	}()
	// Maintenance: full rebuilds and single-shard rebuilds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if err := s.Rebuild(); err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
			if err := s.RebuildShard(i % 4); err != nil {
				t.Errorf("rebuildShard: %v", err)
				return
			}
		}
	}()
	// Observers: stats, epochs, snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := s.Stats(); err != nil {
				t.Errorf("stats: %v", err)
				return
			}
			s.ShardStats()
			_ = s.Epoch()
			_ = s.Len()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if err := s.SaveTo(&countingDiscard{}); err != nil {
				t.Errorf("save: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got, want := s.Len(), len(objs)+len(extra)-60; got != want {
		t.Fatalf("final live count %d, want %d", got, want)
	}
}

// countingDiscard is an io.Writer sink for concurrent snapshot tests.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
