package must

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"must/internal/faultfs"
)

// durableSchema matches the dims used across engine tests but stays
// small so crash-matrix tests can rebuild dozens of engines quickly.
var durableSchema = Schema{{Name: "image", Dim: 8}, {Name: "text", Dim: 6}}

func durableRandObject(rng *rand.Rand) NamedVectors {
	v := make(NamedVectors, len(durableSchema))
	for _, m := range durableSchema {
		x := make([]float32, m.Dim)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		v[m.Name] = x
	}
	return v
}

func newDurableEngine(t *testing.T, shards int) Service {
	t.Helper()
	e, err := NewShardedEngine(durableSchema, shards, EngineOptions{Build: BuildOptions{Gamma: 8, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sameCorpus asserts a and b hold identical objects under identical IDs.
func sameCorpus(t *testing.T, a, b Service) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d vs %d", a.Len(), b.Len())
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("Epoch: %d vs %d", a.Epoch(), b.Epoch())
	}
	// Walk IDs 0..nextID looking for live objects on either side.
	for id := int64(0); id < int64(a.Len()+b.Len()+64); id++ {
		av, aerr := a.Object(id)
		bv, berr := b.Object(id)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("id %d: presence differs (%v vs %v)", id, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		for name, ax := range av {
			bx, ok := bv[name]
			if !ok || len(ax) != len(bx) {
				t.Fatalf("id %d modality %q differs in shape", id, name)
			}
			for i := range ax {
				if ax[i] != bx[i] {
					t.Fatalf("id %d modality %q[%d]: %v vs %v (replay not bit-exact)", id, name, i, ax[i], bx[i])
				}
			}
		}
	}
}

// runWorkload drives the same scripted mutation sequence against a
// service, acking through the returned ack func (nil-safe).
func runWorkload(t *testing.T, svc Service, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ids := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		id, err := svc.Insert(durableRandObject(rng))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if err := svc.Build(); err != nil {
		t.Fatal(err)
	}
	// Delete a deterministic quarter, insert a few more, rebuild.
	for i := 0; i < n; i += 4 {
		if err := svc.Delete(ids[i]); err != nil {
			t.Fatalf("delete %d: %v", ids[i], err)
		}
	}
	for i := 0; i < n/8; i++ {
		if _, err := svc.Insert(durableRandObject(rng)); err != nil {
			t.Fatalf("post-build insert %d: %v", i, err)
		}
	}
	if err := svc.Rebuild(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableReplayEquivalence(t *testing.T) {
	// snapshot + WAL replay must reconstruct the exact state of a service
	// that never crashed — same IDs, same bits, same epoch.
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			ds, replayed, err := OpenDurable(newDurableEngine(t, shards), filepath.Join(dir, "wal"), DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if replayed != 0 {
				t.Fatalf("fresh log replayed %d records", replayed)
			}
			runWorkload(t, ds, 64)
			if err := ds.Close(); err != nil { // "crash": state only in the WAL
				t.Fatal(err)
			}

			ds2, replayed, err := OpenDurable(newDurableEngine(t, shards), filepath.Join(dir, "wal"), DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if replayed == 0 {
				t.Fatal("nothing replayed")
			}
			defer ds2.Close()

			never := newDurableEngine(t, shards)
			runWorkload(t, never, 64)
			sameCorpus(t, ds2, never)
		})
	}
}

func TestDurableCheckpointTruncatesAndSkips(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snap := filepath.Join(dir, "engine.bin")

	ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, ds, 32)
	if err := ds.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land only in the (fresh) WAL.
	rng := rand.New(rand.NewSource(99))
	postIDs := make([]int64, 3)
	for i := range postIDs {
		id, err := ds.Insert(durableRandObject(rng))
		if err != nil {
			t.Fatal(err)
		}
		postIDs[i] = id
	}
	preLen := ds.Len()
	preEpoch := ds.Epoch()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: snapshot restore + replay of exactly the 3 tail records.
	eng, err := LoadService(snap)
	if err != nil {
		t.Fatal(err)
	}
	ds2, replayed, err := OpenDurable(eng, walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3 (checkpoint should have truncated the rest)", replayed)
	}
	if ds2.Len() != preLen || ds2.Epoch() != preEpoch {
		t.Fatalf("restored len/epoch %d/%d, want %d/%d", ds2.Len(), ds2.Epoch(), preLen, preEpoch)
	}
	for _, id := range postIDs {
		if _, err := ds2.Object(id); err != nil {
			t.Fatalf("post-checkpoint insert %d lost: %v", id, err)
		}
	}
}

// awaitFired waits for the n-th fault-rule firing, failing the test —
// rather than hanging it — when the operation it stands for never
// happens.
func awaitFired(t *testing.T, ffs *faultfs.Faulty, n int, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		ffs.AwaitFired(n)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// insertResult is one concurrent writer's outcome.
type insertResult struct {
	id  int64
	err error
}

func goInsert(ds *DurableService, v NamedVectors) <-chan insertResult {
	ch := make(chan insertResult, 1)
	go func() {
		id, err := ds.Insert(v)
		ch <- insertResult{id, err}
	}()
	return ch
}

// While one writer's fsync is in flight, a second writer applies and
// logs: d.mu is not held across Sync. On the parent commit the second
// writer would block on the mutex and never reach the log.
func TestDurableFsyncOutsideLock(t *testing.T) {
	ffs := faultfs.Wrap(faultfs.OS)
	ds, _, err := OpenDurable(newDurableEngine(t, 1), filepath.Join(t.TempDir(), "wal"), DurableOptions{fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	rng := rand.New(rand.NewSource(11))

	hold := make(chan struct{})
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Hold: hold})
	first := goInsert(ds, durableRandObject(rng))
	awaitFired(t, ffs, 1, "the first writer's fsync")

	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, PathContains: ".seg"}) // counts the second record
	second := goInsert(ds, durableRandObject(rng))
	awaitFired(t, ffs, 2, "the second writer's WAL write while the first writer's fsync is in flight (is d.mu held across Sync?)")

	// The record is written after the apply, so the second object is in
	// the engine now — and the first writer is still un-acked.
	if _, err := ds.Object(1); err != nil {
		t.Fatalf("second writer's object not visible while the first fsync is in flight: %v", err)
	}
	select {
	case r := <-first:
		t.Fatalf("first writer acked (%v) while its fsync was held", r.err)
	default:
	}
	close(hold)
	if r := <-first; r.err != nil || r.id != 0 {
		t.Fatalf("first writer: id %d, %v", r.id, r.err)
	}
	if r := <-second; r.err != nil || r.id != 1 {
		t.Fatalf("second writer: id %d, %v", r.id, r.err)
	}
	if st := ds.WALStats(); st.Records != 2 || st.Fsyncs != 2 || st.Poisoned {
		t.Fatalf("WALStats = %+v, want 2 records, 2 fsyncs (the held one, and one for the writer that waited)", st)
	}
}

func TestDurablePoisonOnAppendFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.Wrap(faultfs.OS)
	ds, _, err := OpenDurable(newDurableEngine(t, 1), filepath.Join(dir, "wal"), DurableOptions{fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	rng := rand.New(rand.NewSource(1))
	if _, err := ds.Insert(durableRandObject(rng)); err != nil {
		t.Fatal(err)
	}

	// Two writers in flight when the disk fails: one inside the fsync,
	// one waiting to be covered by the next. Neither may be acked.
	boom := errors.New("disk gone")
	hold := make(chan struct{})
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Hold: hold, Err: boom})
	first := goInsert(ds, durableRandObject(rng))
	awaitFired(t, ffs, 1, "the first writer's fsync")
	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, PathContains: ".seg"})
	second := goInsert(ds, durableRandObject(rng))
	awaitFired(t, ffs, 2, "the second writer's WAL write")
	select {
	case <-ds.Failed():
		t.Fatal("service reports failure before the fsync failed")
	default:
	}
	close(hold)
	for name, ch := range map[string]<-chan insertResult{"syncing": first, "waiting": second} {
		if r := <-ch; !errors.Is(r.err, boom) || !errors.Is(r.err, ErrWALFailed) {
			t.Fatalf("%s writer = %v, want %v wrapped in ErrWALFailed", name, r.err, boom)
		}
	}
	<-ds.Failed()
	if err := ds.Err(); !errors.Is(err, boom) || !ds.WALStats().Poisoned {
		t.Fatalf("Err = %v, Poisoned = %v after a failed fsync", err, ds.WALStats().Poisoned)
	}
	// Every subsequent mutation is rejected, even though the disk is fine
	// again — the in-memory engine is ahead of the log and accepting more
	// writes would make replay diverge.
	if _, err := ds.Insert(durableRandObject(rng)); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("poisoned service answered an insert with %v", err)
	}
	if err := ds.Delete(0); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("poisoned service answered a delete with %v", err)
	}
	if err := ds.Rebuild(); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("poisoned service answered a rebuild with %v", err)
	}
}

// A checkpoint that runs while writers are parked waiting for their
// fsync acks them — their records are in the snapshot, and truncation
// settles the log — and recovery from that snapshot is exactly the acked
// set.
func TestDurableCheckpointAcksParkedWriters(t *testing.T) {
	dir := t.TempDir()
	walDir, snap := filepath.Join(dir, "wal"), filepath.Join(dir, "engine.bin")
	ffs := faultfs.Wrap(faultfs.OS)
	ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, ds, 32)
	rng := rand.New(rand.NewSource(12))
	objs := []NamedVectors{durableRandObject(rng), durableRandObject(rng), durableRandObject(rng)}

	hold := make(chan struct{})
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Hold: hold})
	acks := []<-chan insertResult{goInsert(ds, objs[0])}
	awaitFired(t, ffs, 1, "the first writer's fsync")
	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, PathContains: ".seg", Repeat: true})
	acks = append(acks, goInsert(ds, objs[1]), goInsert(ds, objs[2]))
	awaitFired(t, ffs, 3, "both waiting writers' WAL writes")
	ffs.Inject(faultfs.Fault{Op: faultfs.OpRename}) // the snapshot's commit point
	checkpointed := make(chan error, 1)
	go func() { checkpointed <- ds.Checkpoint(snap) }()
	awaitFired(t, ffs, 4, "the checkpoint's snapshot")
	close(hold)

	never := newDurableEngine(t, 1)
	runWorkload(t, never, 32)
	type acked struct {
		id int64
		v  NamedVectors
	}
	var got []acked
	for i, ch := range acks {
		r := <-ch
		if r.err != nil {
			t.Fatalf("writer %d parked across the checkpoint: %v", i, r.err)
		}
		got = append(got, acked{r.id, objs[i]})
	}
	if err := <-checkpointed; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// The two waiting writers raced for the mutex; IDs say who won.
	sort.Slice(got, func(i, j int) bool { return got[i].id < got[j].id })
	for _, a := range got {
		if id, err := never.Insert(a.v); err != nil || id != a.id {
			t.Fatalf("uncrashed twin assigned ID %d (%v) to the object acked as %d", id, err, a.id)
		}
	}

	// kill -9: only the disk survives.
	ffs.Clear()
	eng, err := LoadService(snap)
	if err != nil {
		t.Fatal(err)
	}
	ds2, replayed, err := OpenDurable(eng, walDir, DurableOptions{fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if replayed != 0 {
		t.Fatalf("replayed %d records; the checkpoint should have truncated them all", replayed)
	}
	sameCorpus(t, ds2, never)
}

func TestDurableFailedInsertNotLogged(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert(NamedVectors{"image": make([]float32, 8)}); err == nil {
		t.Fatal("insert missing a modality should fail")
	}
	rng := rand.New(rand.NewSource(2))
	if _, err := ds.Insert(durableRandObject(rng)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, replayed, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (the failed insert must not be logged)", replayed)
	}
}

// BenchmarkDurableInsertParallel measures a WAL-acked insert (fsync
// "always", real filesystem) with c concurrent writers on a built
// engine: ns/op is wall-clock per acked insert, so group commit shows as
// c2 and c8 falling below c1, and records/fsync says how many writers
// one fsync acked.
func BenchmarkDurableInsertParallel(b *testing.B) {
	schema := Schema{{Name: "image", Dim: 64}, {Name: "text", Dim: 32}}
	randObject := func(rng *rand.Rand) NamedVectors {
		v := make(NamedVectors, len(schema))
		for _, m := range schema {
			x := make([]float32, m.Dim)
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			v[m.Name] = x
		}
		return v
	}
	for _, c := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
			eng, err := NewEngine(schema, EngineOptions{Build: BuildOptions{Gamma: 16, Seed: 42}})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 2000; i++ {
				if _, err := eng.Insert(randObject(rng)); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Build(); err != nil {
				b.Fatal(err)
			}
			ds, _, err := OpenDurable(eng, b.TempDir(), DurableOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer ds.Close()
			objs := make([]NamedVectors, b.N)
			for i := range objs {
				objs[i] = randObject(rng)
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < c; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						if _, err := ds.Insert(objs[i]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if st := ds.WALStats(); st.Fsyncs > 0 {
				b.ReportMetric(float64(st.Records)/float64(st.Fsyncs), "records/fsync")
			}
		})
	}
}
