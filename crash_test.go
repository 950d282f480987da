package must

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"must/internal/faultfs"
	"must/internal/wal"
)

// errKilled stands in for the process dying at an injection point: the
// I/O call never completes, and everything after it never runs.
var errKilled = errors.New("killed at injection point")

// crashInserts appends three deterministic acked inserts (seed 55) so
// crashed and never-crashed runs can replay the same script.
func crashInserts(t *testing.T, svc Service) []int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	ids := make([]int64, 3)
	for i := range ids {
		id, err := svc.Insert(durableRandObject(rng))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// newestSegment returns the path of the highest-numbered WAL segment.
func newestSegment(t *testing.T, walDir string) string {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	sort.Strings(segs)
	return filepath.Join(walDir, segs[len(segs)-1])
}

// TestCrashMatrixCheckpoint kills a checkpoint at every injection point
// of the snapshot path — torn temp-file write, failed data fsync, failed
// rename, failed directory fsync — and asserts that reopening from
// whatever survived on disk (newest readable snapshot + WAL replay)
// restores exactly the acked pre-crash state.
func TestCrashMatrixCheckpoint(t *testing.T) {
	cases := []struct {
		name  string
		fault faultfs.Fault
	}{
		// The temp file write tears mid-buffer: 7 bytes land, the rest
		// never reaches the kernel.
		{"torn-tmp-write", faultfs.Fault{Op: faultfs.OpWrite, PathContains: ".tmp", Short: 7, Err: errKilled}},
		// Crash before the temp file's data is on stable storage.
		{"pre-sync", faultfs.Fault{Op: faultfs.OpSync, PathContains: ".tmp", Err: errKilled}},
		// Data synced, crash before the rename makes it visible.
		{"post-sync-pre-rename", faultfs.Fault{Op: faultfs.OpRename, Err: errKilled}},
		// Renamed, crash before the directory entry is durable.
		{"post-rename-dir-sync", faultfs.Fault{Op: faultfs.OpSyncDir, Err: errKilled}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			walDir := filepath.Join(dir, "wal")
			snap := filepath.Join(dir, "engine.bin")
			ffs := faultfs.Wrap(faultfs.OS)
			ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{fs: ffs})
			if err != nil {
				t.Fatal(err)
			}
			runWorkload(t, ds, 32)
			if err := ds.Checkpoint(snap); err != nil {
				t.Fatal(err)
			}
			crashInserts(t, ds) // acked after the good checkpoint

			ffs.Inject(tc.fault)
			if err := ds.Checkpoint(snap); err == nil {
				t.Fatal("checkpoint at injection point reported success")
			}
			if len(ffs.Fired()) == 0 {
				t.Fatal("fault never fired — injection point not exercised")
			}
			// kill -9: the service is abandoned without Close; only what is
			// on disk survives.
			ffs.Clear()

			eng, err := LoadService(snap)
			if err != nil {
				t.Fatalf("snapshot unreadable after crashed checkpoint: %v", err)
			}
			ds2, _, err := OpenDurable(eng, walDir, DurableOptions{fs: ffs})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer ds2.Close()

			never := newDurableEngine(t, 1)
			runWorkload(t, never, 32)
			crashInserts(t, never)
			sameCorpus(t, ds2, never)
		})
	}
}

// TestCrashTornWalTail simulates kill -9 mid-append: a frame header
// promising 64 bytes with only 10 behind it sits at the tail of the live
// segment. Recovery must discard exactly the torn frame and keep every
// acked record.
func TestCrashTornWalTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, ds, 32)
	// Abandoned without Close; fsync=always means every acked record is
	// already on disk. Tear the in-flight frame onto the tail by hand.
	seg := newestSegment(t, walDir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr, 64)
	binary.LittleEndian.PutUint32(hdr[4:], 0xdeadbeef)
	if _, err := f.Write(append(hdr, make([]byte, 10)...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, replayed, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer ds2.Close()
	if replayed == 0 {
		t.Fatal("nothing replayed")
	}
	never := newDurableEngine(t, 1)
	runWorkload(t, never, 32)
	sameCorpus(t, ds2, never)
}

// TestCrashShortWalAppend: the disk tears an append mid-frame and the
// write errors. The insert is not acked, the service poisons itself, and
// recovery truncates the torn bytes — the reopened state is exactly the
// acked prefix.
func TestCrashShortWalAppend(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ffs := faultfs.Wrap(faultfs.OS)
	ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	acked := crashInserts(t, ds)

	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, PathContains: ".seg", Short: 5, Err: errKilled})
	rng := rand.New(rand.NewSource(91))
	if _, err := ds.Insert(durableRandObject(rng)); !errors.Is(err, errKilled) {
		t.Fatalf("torn append acked the insert: %v", err)
	}
	ffs.Clear()

	ds2, replayed, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{fs: ffs})
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	defer ds2.Close()
	if replayed != len(acked) {
		t.Fatalf("replayed %d records, want the %d acked", replayed, len(acked))
	}
	never := newDurableEngine(t, 1)
	crashInserts(t, never)
	sameCorpus(t, ds2, never)
}

// TestCrashConcurrentWriters kills the process at every WAL write and
// fsync of a four-writer insert burst — where, with group commit, the
// engine can be several un-acked mutations ahead of the log — and
// reopens from the log alone. Whatever survived must be a prefix of the
// log order (IDs are positional, so no holes and each writer's objects
// in its own order), must contain every acked ID, and must be
// bit-identical, graph included, to a fresh engine fed that prefix.
func TestCrashConcurrentWriters(t *testing.T) {
	const writers, each, base = 4, 5, 24
	// objs[w][i] is writer w's i-th object.
	rng := rand.New(rand.NewSource(77))
	baseObjs := make([]NamedVectors, base)
	for i := range baseObjs {
		baseObjs[i] = durableRandObject(rng)
	}
	var objs [writers][each]NamedVectors
	for w := range objs {
		for i := range objs[w] {
			objs[w][i] = durableRandObject(rng)
		}
	}
	// seed fills a service with the base corpus and builds it, so the
	// burst goes through graph.Insert.
	seed := func(t *testing.T, svc Service) {
		t.Helper()
		for _, o := range baseObjs {
			if _, err := svc.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Build(); err != nil {
			t.Fatal(err)
		}
	}
	// stored maps an object to the form Object() returns it in, through
	// an engine that holds every object of the test.
	type key struct{ w, i int }
	ref := newDurableEngine(t, 1)
	index := map[string]key{}
	for w := range objs {
		for i := range objs[w] {
			id, err := ref.Insert(objs[w][i])
			if err != nil {
				t.Fatal(err)
			}
			o, err := ref.Object(id)
			if err != nil {
				t.Fatal(err)
			}
			index[fmt.Sprint(o)] = key{w, i}
		}
	}

	run := func(t *testing.T, fault faultfs.Fault) (fired bool) {
		dir := t.TempDir()
		ffs := faultfs.Wrap(faultfs.OS)
		ds, _, err := OpenDurable(newDurableEngine(t, 1), dir, DurableOptions{fs: ffs})
		if err != nil {
			t.Fatal(err)
		}
		seed(t, ds)
		ffs.Inject(fault)

		ackedIDs := make([][]int64, writers) // ackedIDs[w][i]: ID of objs[w][i]
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range objs[w] {
					id, err := ds.Insert(objs[w][i])
					if err != nil {
						if !errors.Is(err, errKilled) {
							t.Errorf("writer %d insert %d: %v", w, i, err)
						}
						return // the process is dead
					}
					ackedIDs[w] = append(ackedIDs[w], id)
				}
			}()
		}
		wg.Wait()
		fired = len(ffs.Fired()) > 0
		ffs.Clear() // kill -9: ds is abandoned, only the disk survives

		ds2, _, err := OpenDurable(newDurableEngine(t, 1), dir, DurableOptions{fs: ffs})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer ds2.Close()

		// Read the recovered burst back in ID order: that is the log order.
		twin := newDurableEngine(t, 1)
		seed(t, twin)
		next := make([]int, writers)
		recovered := ds2.Len() - base
		for id := int64(base); id < int64(base+recovered); id++ {
			o, err := ds2.Object(id)
			if err != nil {
				t.Fatalf("recovered %d burst objects but ID %d is missing: not a prefix of the log", recovered, id)
			}
			k, ok := index[fmt.Sprint(o)]
			if !ok {
				t.Fatalf("ID %d holds an object no writer sent", id)
			}
			if k.i != next[k.w] {
				t.Fatalf("ID %d is writer %d's object %d, recovered before its object %d", id, k.w, k.i, next[k.w])
			}
			next[k.w]++
			if _, err := twin.Insert(objs[k.w][k.i]); err != nil {
				t.Fatal(err)
			}
		}
		for w, ids := range ackedIDs {
			if len(ids) > next[w] {
				t.Fatalf("writer %d was acked %d inserts, only %d recovered", w, len(ids), next[w])
			}
			for i, id := range ids {
				if o, err := ds2.Object(id); err != nil || index[fmt.Sprint(o)] != (key{w, i}) {
					t.Fatalf("writer %d's insert %d was acked as ID %d; recovery has %v there (%v)", w, i, id, index[fmt.Sprint(o)], err)
				}
			}
		}
		var a, b bytes.Buffer
		if err := ds2.SaveTo(&a); err != nil {
			t.Fatal(err)
		}
		if err := twin.SaveTo(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("recovered engine differs from a fresh engine fed the same %d-insert prefix", recovered)
		}
		return fired
	}

	for _, op := range []faultfs.Op{faultfs.OpWrite, faultfs.OpSync} {
		// At most one write and one fsync per burst record; a point the
		// burst never reaches (group commit needs fewer fsyncs) is a run
		// with no crash, which must recover everything.
		for k := 0; k < writers*each; k++ {
			fault := faultfs.Fault{Op: op, PathContains: ".seg", After: k, Err: errKilled}
			if op == faultfs.OpWrite {
				fault.Short = 5 // the frame tears mid-header
			}
			t.Run(fmt.Sprintf("%s-%d", op, k), func(t *testing.T) {
				if fired := run(t, fault); !fired && op == faultfs.OpWrite {
					t.Fatal("write kill-point never reached")
				}
			})
		}
	}
}

// TestCrashCorruptMidSegmentFailsLoudly: a bit-flip inside an acked
// record — not at the tail — must refuse to open rather than silently
// resurrect a prefix of history.
func TestCrashCorruptMidSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crashInserts(t, ds) // several frames so the flipped one is mid-log
	seg := newestSegment(t, walDir)
	// Offset 8 (segment magic) + 8 (frame header) + 3 lands inside the
	// first record's payload.
	if err := faultfs.FlipByte(seg, 8+8+3, 0x40); err != nil {
		t.Fatal(err)
	}

	if _, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("mid-segment corruption opened with err = %v, want ErrCorrupt", err)
	}
}
