package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"must/internal/faultfs"
)

// heldLog opens a log over a faulty FS whose next segment fsync parks on
// the returned channel (and then fails with err, if non-nil), writes
// record 1 and starts its Commit, and returns once that Commit is inside
// the held fsync — so everything the test writes next was provably
// written after the fsync began. Every later segment fsync is counted in
// ffs.Fired.
func heldLog(t *testing.T, opts Options, err error) (l *Log, ffs *faultfs.Faulty, hold chan struct{}, first chan error) {
	t.Helper()
	ffs = faultfs.Wrap(faultfs.OS)
	opts.FS = ffs
	l, oerr := Open(t.TempDir(), opts)
	if oerr != nil {
		t.Fatal(oerr)
	}
	hold = make(chan struct{})
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Hold: hold, Err: err})
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Repeat: true})
	lsn, werr := l.Write(rec(OpInsert, 1, "first-record-payload"))
	if werr != nil {
		t.Fatal(werr)
	}
	first = make(chan error, 1)
	go func() { first <- l.Commit(lsn) }()
	ffs.AwaitFired(1)
	return l, ffs, hold, first
}

// commitAll starts one Commit per lsn and returns a func that collects
// their errors in lsn order.
func commitAll(l *Log, lsns []uint64) (wait func() []error) {
	errs := make([]error, len(lsns))
	var wg sync.WaitGroup
	for i, lsn := range lsns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.Commit(lsn)
		}()
	}
	return func() []error { wg.Wait(); return errs }
}

// With fsync #1 in flight, N more records are written and committed
// concurrently: all of them return after exactly one further fsync.
func TestGroupCommitOneFsyncCoversAllWaiters(t *testing.T) {
	const n = 16
	l, ffs, hold, first := heldLog(t, Options{}, nil)
	defer l.Close()
	lsns := make([]uint64, n)
	for i := range lsns {
		lsn, err := l.Write(rec(OpInsert, uint64(i+2), "waiter"))
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	wait := commitAll(l, lsns)
	close(hold)
	if err := <-first; err != nil {
		t.Fatalf("first Commit: %v", err)
	}
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if fired := ffs.Fired(); len(fired) != 2 {
		t.Fatalf("%d records committed with %d fsyncs, want 2 (the held one and one for every waiter): %v", n+1, len(fired), fired)
	}
	if st := l.Stats(); st.Records != n+1 || st.Fsyncs != 2 {
		t.Fatalf("Stats = %d records, %d fsyncs; want %d, 2", st.Records, st.Fsyncs, n+1)
	}
	var inBuckets uint64
	for _, c := range l.Stats().FsyncBuckets {
		inBuckets += c
	}
	if inBuckets > 2 {
		t.Fatalf("fsync histogram holds %d observations of 2 fsyncs", inBuckets)
	}
}

// A held fsync that then fails fails its own caller, every waiter and
// every later Write: durability of anything uncommitted is unknown.
func TestGroupCommitSyncFailureIsSticky(t *testing.T) {
	boom := errors.New("disk gone")
	l, _, hold, first := heldLog(t, Options{}, boom)
	defer l.Close()
	lsns := make([]uint64, 8)
	for i := range lsns {
		lsn, err := l.Write(rec(OpInsert, uint64(i+2), "waiter"))
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	wait := commitAll(l, lsns)
	close(hold)
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("syncer's Commit = %v, want %v", err, boom)
	}
	for i, err := range wait() {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d = %v, want %v", i, err, boom)
		}
	}
	if _, err := l.Write(rec(OpInsert, 99, "late")); !errors.Is(err, boom) {
		t.Fatalf("Write after a failed fsync = %v, want wrapped %v", err, boom)
	}
	if err := l.Append(rec(OpInsert, 100, "late")); !errors.Is(err, boom) {
		t.Fatalf("Append after a failed fsync = %v, want wrapped %v", err, boom)
	}
}

// Writers that must rotate while an fsync of the full segment is in
// flight wait it out and lose nothing: replay returns every record whose
// Commit returned nil, in LSN order.
func TestGroupCommitRotationKeepsWaiters(t *testing.T) {
	const n = 12
	// Record 1 alone fills the segment, so every later Write rotates.
	l, _, hold, first := heldLog(t, Options{SegmentBytes: 16}, nil)
	type ack struct {
		lsn, epoch uint64
	}
	acks := make(chan ack, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			epoch := uint64(i + 2)
			lsn, err := l.Write(rec(OpInsert, epoch, "rotating-writer-payload"))
			if err == nil {
				err = l.Commit(lsn)
			}
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
				return
			}
			acks <- ack{lsn, epoch}
		}()
	}
	close(hold)
	if err := <-first; err != nil {
		t.Fatalf("first Commit: %v", err)
	}
	wg.Wait()
	close(acks)
	dir := l.Dir()
	// No Close: what Commit acked must already be on disk.
	got := collect(t, dir, Options{}, 0)
	if len(got) != n+1 {
		t.Fatalf("replayed %d records, want %d", len(got), n+1)
	}
	for a := range acks {
		if got[a.lsn-1].Epoch != a.epoch {
			t.Fatalf("record at LSN %d replays with epoch %d, want %d", a.lsn, got[a.lsn-1].Epoch, a.epoch)
		}
	}
	if seqs, err := listSegments(faultfs.OS, dir); err != nil || len(seqs) < n {
		t.Fatalf("expected a rotation per writer, got segments %v (%v)", seqs, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// Truncate and Close settle the log: Commit callers parked behind an
// in-flight fsync are acked by them, and nothing acked is lost.
func TestGroupCommitTruncateAndCloseSettleWaiters(t *testing.T) {
	for _, op := range []string{"truncate", "close"} {
		t.Run(op, func(t *testing.T) {
			const n = 8
			l, _, hold, first := heldLog(t, Options{}, nil)
			lsns := make([]uint64, n)
			for i := range lsns {
				lsn, err := l.Write(rec(OpInsert, uint64(i+2), "waiter"))
				if err != nil {
					t.Fatal(err)
				}
				lsns[i] = lsn
			}
			wait := commitAll(l, lsns)
			settled := make(chan error, 1)
			go func() {
				if op == "truncate" {
					settled <- l.Truncate()
				} else {
					settled <- l.Close()
				}
			}()
			close(hold)
			if err := <-first; err != nil {
				t.Fatalf("first Commit: %v", err)
			}
			for i, err := range wait() {
				if err != nil {
					t.Fatalf("waiter %d: %v", i, err)
				}
			}
			if err := <-settled; err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if op == "close" {
				if got := collect(t, l.Dir(), Options{}, 0); len(got) != n+1 {
					t.Fatalf("replayed %d records after Close, want %d", len(got), n+1)
				}
				return
			}
			// Truncated: the old records are gone by design (a snapshot
			// holds them); the log keeps working.
			mustAppend(t, l, rec(OpInsert, 50, "after"))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := collect(t, l.Dir(), Options{}, 0); len(got) != 1 || got[0].Epoch != 50 {
				t.Fatalf("after Truncate replayed %+v, want just epoch 50", got)
			}
		})
	}
}

// Many writers on a real filesystem, for the race detector: every acked
// record replays, each writer's records in its own order, and group
// commit never issues more fsyncs than records.
func TestGroupCommitConcurrentAppend(t *testing.T) {
	const writers, each = 8, 40
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(rec(OpInsert, uint64(i+1), fmt.Sprintf("w%d", w))); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != writers*each || st.Fsyncs == 0 || st.Fsyncs > st.Records {
		t.Fatalf("Stats = %d records, %d fsyncs", st.Records, st.Fsyncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	next := map[string]uint64{}
	for _, r := range collect(t, dir, Options{}, 0) {
		w := string(r.Data)
		if next[w]+1 != r.Epoch {
			t.Fatalf("writer %s: record %d replayed after %d", w, r.Epoch, next[w])
		}
		next[w] = r.Epoch
	}
	for w := 0; w < writers; w++ {
		if got := next[fmt.Sprintf("w%d", w)]; got != each {
			t.Fatalf("writer %d: %d of %d records replayed", w, got, each)
		}
	}
}
