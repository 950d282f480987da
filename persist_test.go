package must

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// collectionBytes serializes c as the collection section of a snapshot.
func collectionBytes(t *testing.T, c *collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeCollectionBody(bw, c); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readCollection(b []byte) (*collection, error) {
	return readCollectionBody(bufio.NewReader(bytes.NewReader(b)))
}

func readEngineBytes(b []byte) (*Engine, error) {
	return ReadEngine(bytes.NewReader(b), int64(len(b)))
}

func TestCollectionRoundTrip(t *testing.T) {
	e, _, _ := corpusEngine(t, 200, 5, 91, BuildOptions{})
	c := e.parts[0].c
	got, err := readCollection(collectionBytes(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() || len(got.dims) != len(c.dims) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.Len(), len(got.dims), c.Len(), len(c.dims))
	}
	for id := 0; id < c.Len(); id++ {
		a, b := c.store.Row(id), got.store.Row(id)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("object %d differs after round trip", id)
			}
		}
	}
}

// Full persistence: snapshot a built engine, read it back, and search
// identically.
func TestFullPersistenceRoundTrip(t *testing.T) {
	e, queries, _ := buildCorpus(t, 300, 10, 92, BuildOptions{Gamma: 12, Seed: 93})
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := readEngineBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:5] {
		a := searchIDs(t, e, corpusQuery(q, 5, 100))
		b := searchIDs(t, e2, corpusQuery(q, 5, 100))
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("restored engine searches differently")
			}
		}
	}
}

// The writer must emit the v4 magic, and the loader must adopt the vector
// block as one arena that the collection's shared store views directly
// (no per-object re-copy).
func TestCollectionWritesV4ArenaFormat(t *testing.T) {
	e, _, _ := corpusEngine(t, 20, 3, 90, BuildOptions{})
	raw := collectionBytes(t, e.parts[0].c)
	if got := string(raw[:8]); got != "MUSTCL4\n" {
		t.Fatalf("magic = %q, want MUSTCL4", got)
	}
	got, err := readCollection(raw)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range got.dims {
		total += d
	}
	st := got.store
	if st == nil {
		t.Fatal("v4 load did not install a store")
	}
	// The whole corpus must live in one contiguous arena run, and the
	// store's row/modality views must alias it rather than copy.
	var runs [][]float32
	if err := st.Runs(func(run []float32) error { runs = append(runs, run); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0]) != got.Len()*total {
		t.Fatalf("v4 load produced %d arena runs, want 1 full run", len(runs))
	}
	arena := runs[0]
	if &st.Row(3)[0] != &arena[3*total] {
		t.Fatal("store rows do not alias the adopted arena")
	}
	off := 3 * total
	for m := range got.dims {
		v := st.Modality(3, m)
		if &v[0] != &arena[off] {
			t.Fatalf("modality %d view does not alias the arena", m)
		}
		off += len(v)
	}
}

// A header claiming an enormous vector block with no data behind it must
// fail with a read error quickly, not attempt the full allocation.
func TestReadCollectionRejectsHugeClaimedBlock(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("MUSTCL4\n")
	for _, v := range []uint32{2, 1 << 16, 1 << 16, 0, 0} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint64(1<<28)); err != nil {
		t.Fatal(err)
	}
	if _, err := readCollection(buf.Bytes()); err == nil {
		t.Error("huge claimed block with no data did not error")
	}
}

// The 64-bit count admits even wilder claims: load must never commit
// memory proportional to the claimed header, only to the data that
// actually arrives.
func TestReadCollectionV4NeverOverAllocates(t *testing.T) {
	mkHeader := func(n uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString("MUSTCL4\n")
		for _, v := range []uint32{2, 1 << 16, 1 << 16, 0, 0} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := binary.Write(&buf, binary.LittleEndian, n); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, n := range []uint64{1 << 27, 1 << 28, 1 << 40, 1 << 62} {
		if _, err := readCollection(mkHeader(n)); err == nil {
			t.Errorf("claimed count %d with no data did not error", n)
		}
	}
	runtime.ReadMemStats(&after)
	// Each failed load may commit at most the capped upfront arena
	// (16 MiB); far below the petabytes the headers claim.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<20 {
		t.Errorf("corrupt headers allocated %d bytes total, want bounded by the upfront cap", grew)
	}
}

func TestReadCollectionRejectsGarbage(t *testing.T) {
	if _, err := readCollection([]byte("nonsense")); err == nil {
		t.Error("garbage did not error")
	}
	e, _, _ := corpusEngine(t, 50, 5, 94, BuildOptions{})
	raw := collectionBytes(t, e.parts[0].c)
	if _, err := readCollection(raw[:len(raw)/3]); err == nil {
		t.Error("truncated stream did not error")
	}
}

// engineHeader is a MUSTEG2 header for one 4-dim modality that claims n
// objects and ends there: no ids, tombstones or vectors follow.
func engineHeader(n uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString("MUSTEG2\n")
	le := binary.LittleEndian
	_ = binary.Write(&buf, le, uint32(1)) // m
	_ = binary.Write(&buf, le, uint32(5)) // name length
	buf.WriteString("image")
	_ = binary.Write(&buf, le, uint32(4))           // dim
	_ = binary.Write(&buf, le, math.Float32bits(1)) // weight
	_ = binary.Write(&buf, le, [3]uint32{30, 0, 0}) // gamma, reserved
	_ = binary.Write(&buf, le, [3]uint64{1, 0, 0})  // seed, nextID, epoch
	_ = binary.Write(&buf, le, n)                   // object count
	return buf.Bytes()
}

// A corrupt MUSTEG2 object count must be an error, not an allocation the
// runtime cannot satisfy: that failure is fatal and unrecoverable, so a
// snapshot load (mustd -load, WAL recovery) would crash the process.
func TestReadEngineRejectsHugeClaimedCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, n := range []uint32{math.MaxUint32, maxPersistObjects + 1, maxPersistObjects} {
		if _, err := readEngineBytes(engineHeader(n)); err == nil {
			t.Errorf("claimed count %d with no data did not error", n)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<20 {
		t.Errorf("corrupt headers allocated %d bytes total, want bounded by the upfront cap", grew)
	}
}

// snapshotFixture is the engine shape every snapshot test saves: a small
// corpus, optionally SQ8, and when built carrying tombstones and insert
// overlay vertices in every shard. shards = 0 uses NewEngine.
func snapshotFixture(tb testing.TB, shards int, sq8, build bool) Service {
	tb.Helper()
	schema := Schema{{Name: "image", Dim: 4}, {Name: "text", Dim: 2}}
	opts := EngineOptions{Build: BuildOptions{Gamma: 6, Seed: 1}}
	rng := rand.New(rand.NewSource(1))
	objects := make([]Object, 123)
	for i := range objects {
		objects[i] = Object{randVec(rng, 4), randVec(rng, 2)}
	}
	var svc Service
	if shards == 0 {
		e, err := NewEngine(schema, opts)
		if err != nil {
			tb.Fatal(err)
		}
		svc = e
	} else {
		s, err := NewShardedEngine(schema, shards, opts)
		if err != nil {
			tb.Fatal(err)
		}
		svc = s
	}
	for _, o := range objects[:120] {
		if _, err := svc.InsertObject(o); err != nil {
			tb.Fatal(err)
		}
	}
	if sq8 {
		if err := svc.EnableQuantization(0); err != nil {
			tb.Fatal(err)
		}
	}
	if !build {
		return svc
	}
	if err := svc.Build(); err != nil {
		tb.Fatal(err)
	}
	for _, id := range []int64{3, 7, 11} {
		if err := svc.Delete(id); err != nil {
			tb.Fatal(err)
		}
	}
	for _, o := range objects[120:] {
		if _, err := svc.InsertObject(o); err != nil {
			tb.Fatal(err)
		}
	}
	for j, info := range svc.ShardStats() {
		if info.Stats.OverlayVertices == 0 || info.Deleted == 0 {
			tb.Fatalf("fixture shard %d lacks an insert overlay or a tombstone: %+v", j, info)
		}
	}
	return svc
}

func saveBytes(tb testing.TB, svc Service) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := svc.SaveTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotBytesPinned pins what SaveTo writes, byte for byte, for one
// graph and for three shards, float32 and SQ8, each built and then given
// tombstones and insert-overlay vertices. A change to any of these hashes
// is a snapshot format change and must be deliberate.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		shards int
		sq8    bool
		sha256 string
	}{
		{0, false, "07eb790d473b458d2fdff7fd1911afd6b83b94b192e8d122418e7b9b2ae86e72"},
		{0, true, "dc12a31e06731c7ff23bd884b946d0fb742a9653c3e7a31e3c9a4148e26a526d"},
		{3, false, "1ea5fff993d395c043909b696837e8b5be91cf083ab9ec69addeb580452ff70e"},
		{3, true, "98b140d4ccb96dbbbf1ea426ca93dee6d06bda980606c2ab00d28b3011b72fd3"},
	} {
		sum := sha256.Sum256(saveBytes(t, snapshotFixture(t, tc.shards, tc.sq8, true)))
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("shards=%d sq8=%v: SaveTo sha256 %s, want %s", tc.shards, tc.sq8, got, tc.sha256)
		}
	}
}

// buildWords returns a copy of the one-shard snapshotFixture blob with its
// build words (γ and the two reserved words) replaced.
func buildWords(tb testing.TB, blob []byte, words [3]uint32) []byte {
	tb.Helper()
	// magic, m, "image" and "text" (length, name, dim each), 2 weights.
	const at = 8 + 4 + (4 + 5 + 4) + (4 + 4 + 4) + 2*4
	if got := binary.LittleEndian.Uint32(blob[at:]); got != 6 {
		tb.Fatalf("γ word at offset %d reads %d, want the fixture's 6", at, got)
	}
	out := bytes.Clone(blob)
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[at+4*i:], w)
	}
	return out
}

// A snapshot's γ reaches every later insert's beam (4·γ entries), so a load
// must refuse an out-of-range γ rather than leave the first insert to ask
// for gigabytes; the reserved words must read 0.
func TestReadEngineRejectsBadBuildWords(t *testing.T) {
	blob := saveBytes(t, snapshotFixture(t, 0, false, true))
	if _, err := readEngineBytes(buildWords(t, blob, [3]uint32{maxGamma, 0, 0})); err != nil {
		t.Fatalf("γ = %d: %v", maxGamma, err)
	}
	for _, words := range [][3]uint32{
		{1 << 30, 0, 0},
		{maxGamma + 1, 0, 0},
		{6, 3, 0},
		{6, 0, 1},
	} {
		if _, err := readEngineBytes(buildWords(t, blob, words)); err == nil {
			t.Errorf("build words %v loaded", words)
		}
	}
}

// snapshotSeeds returns SaveTo output for the engine shapes the decoder
// must handle: one shard built float32 with tombstones and an insert
// overlay, built SQ8 (collection v5), and unbuilt; and three shards in a
// MUSTSH1 container, float32 and SQ8.
func snapshotSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	return [][]byte{
		saveBytes(tb, snapshotFixture(tb, 0, false, true)),
		saveBytes(tb, snapshotFixture(tb, 0, true, true)),
		saveBytes(tb, snapshotFixture(tb, 0, false, false)),
		saveBytes(tb, snapshotFixture(tb, 3, false, true)),
		saveBytes(tb, snapshotFixture(tb, 3, true, true)),
	}
}

// FuzzReadEngine drives the snapshot decoder, which covers every reader
// of a snapshot: the MUSTSH1 container, MUSTEG2, the v4/v5 collection
// section and MUSTIX2. ReadEngine must reject bad input with an error,
// never a panic or an unbounded allocation. Whatever it accepts
// re-encodes to a fixed point, and each unmutated seed SaveTo wrote
// re-encodes to itself byte for byte. The other seeds are inputs no
// engine writes: a container of one shard (it re-encodes as its MUSTEG2
// blob), blob sizes past the end of the input and near MaxInt64, and
// nonzero reserved build words or an out-of-range γ.
func FuzzReadEngine(f *testing.F) {
	seeds := make(map[string]bool)
	for _, s := range snapshotSeeds(f) {
		seeds[string(s)] = true
		f.Add(s)
	}
	f.Add(engineHeader(math.MaxUint32))
	blob := saveBytes(f, snapshotFixture(f, 0, false, true))
	f.Add(shardContainer(5, blob))
	pastEOF := saveBytes(f, snapshotFixture(f, 3, false, true))
	binary.LittleEndian.PutUint64(pastEOF[20:], uint64(len(pastEOF)))
	f.Add(pastEOF)
	huge := shardContainer(0, blob)
	binary.LittleEndian.PutUint64(huge[20:], math.MaxInt64-10)
	f.Add(huge)
	for _, words := range [][3]uint32{{1 << 30, 0, 0}, {6, 3, 0}, {6, 0, 1}} {
		f.Add(buildWords(f, blob, words))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := readEngineBytes(data)
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := e.SaveTo(&once); err != nil {
			t.Fatalf("saving an accepted snapshot: %v", err)
		}
		if seeds[string(data)] && !bytes.Equal(once.Bytes(), data) {
			t.Fatal("seed snapshot did not round-trip byte for byte")
		}
		e2, err := readEngineBytes(once.Bytes())
		if err != nil {
			t.Fatalf("re-reading a written snapshot: %v", err)
		}
		var twice bytes.Buffer
		if err := e2.SaveTo(&twice); err != nil {
			t.Fatalf("saving a re-read snapshot: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("re-encoding an accepted snapshot is not a fixed point")
		}
	})
}

func TestFilteredSearch(t *testing.T) {
	e, queries, _ := buildCorpus(t, 300, 10, 95, BuildOptions{Gamma: 12, Seed: 96})
	// Keep only even object IDs — the attribute-constraint analogue.
	for _, q := range queries {
		fq := corpusQuery(q, 5, 200)
		fq.Filter = func(id int64) bool { return id%2 == 0 }
		ids := searchIDs(t, e, fq)
		if len(ids) == 0 {
			t.Fatal("filtered search returned nothing")
		}
		for _, id := range ids {
			if id%2 != 0 {
				t.Fatalf("filter violated: id %d", id)
			}
		}
	}
}

func TestEarlyTerminationTradeoff(t *testing.T) {
	e, queries, truths := buildCorpus(t, 600, 20, 97, BuildOptions{Gamma: 14, Seed: 98})
	recall := func(patience int) float64 {
		hits := 0
		for i, q := range queries {
			pq := corpusQuery(q, 5, 200)
			pq.Patience = patience
			resp, err := e.Search(context.Background(), pq)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(matchIDs(resp), truths[i]) {
				hits++
			}
		}
		return float64(hits) / float64(len(queries))
	}
	full := recall(0)
	eager := recall(2)
	if eager > full+1e-9 {
		t.Errorf("early termination cannot beat full search: %v vs %v", eager, full)
	}
	if eager < full-0.3 {
		t.Errorf("early termination lost too much recall: %v vs %v", eager, full)
	}
}

// A snapshot taken while RebuildShard compacts sees each shard either
// wholly before or wholly after the compaction: a shard is written under
// its read lock and a rebuild swaps under its write lock, so no lock
// outside the engine is needed to serialize the two.
func TestSnapshotDuringRebuildShard(t *testing.T) {
	const (
		n    = 3000
		dead = 600
	)
	e := newSharded(t, shardedObjects(n, 17), 2, true)
	// Shard 0 holds the even IDs; tombstone the first dead of them.
	for id := int64(0); id < 2*dead; id += 2 {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	queries := shardedQueries(4, 18)
	want := make([][]ScoredMatch, len(queries))
	for i, q := range queries {
		resp, err := e.ExactSearch(context.Background(), Query{Vectors: q, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.Matches
	}

	done := make(chan error, 1)
	go func() {
		for range 3 {
			if err := e.RebuildShard(0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	snapshots := 0
	for rebuilding := true; rebuilding || snapshots < 2; snapshots++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			rebuilding = false
		default:
		}
		var buf bytes.Buffer
		if err := e.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := readEngineBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("snapshot %d: %v", snapshots, err)
		}
		if got.Len() != n-dead {
			t.Fatalf("snapshot %d holds %d live objects, want %d", snapshots, got.Len(), n-dead)
		}
		if d := got.ShardStats()[0].Deleted; d != dead && d != 0 {
			t.Fatalf("snapshot %d caught shard 0 mid-compaction: %d tombstones, want %d or 0", snapshots, d, dead)
		}
		for i, q := range queries {
			resp, err := got.ExactSearch(context.Background(), Query{Vectors: q, K: 10})
			if err != nil {
				t.Fatal(err)
			}
			same := slices.EqualFunc(resp.Matches, want[i], func(a, b ScoredMatch) bool {
				return a.ID == b.ID && a.Similarity == b.Similarity
			})
			if !same {
				t.Fatalf("snapshot %d, query %d: exact search differs from the live engine's", snapshots, i)
			}
		}
	}
	if e.Deleted() != 0 {
		t.Fatalf("%d tombstones left after RebuildShard(0)", e.Deleted())
	}
	t.Logf("%d snapshots restored during three RebuildShard(0) calls", snapshots)
}
