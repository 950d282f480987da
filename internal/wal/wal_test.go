package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"must/internal/faultfs"
)

func mustAppend(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
}

func collect(t *testing.T, dir string, opts Options, after uint64) []Record {
	t.Helper()
	var got []Record
	n, err := Replay(dir, opts, after, func(r Record) error {
		cp := r
		cp.Data = append([]byte(nil), r.Data...)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != len(got) {
		t.Fatalf("Replay count %d != %d records", n, len(got))
	}
	return got
}

func rec(op Op, epoch uint64, data string) Record {
	return Record{Op: op, Epoch: epoch, Data: []byte(data)}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		rec(OpInsert, 1, "obj-1"),
		rec(OpInsert, 2, "obj-2"),
		rec(OpRebuild, 3, ""),
		rec(OpDelete, 4, "\x01\x00\x00\x00\x00\x00\x00\x00"),
	}
	mustAppend(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got := collect(t, dir, Options{}, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Epoch != want[i].Epoch || string(got[i].Data) != string(want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReplaySkipsEpochs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l,
		rec(OpInsert, 1, "a"), rec(OpInsert, 2, "b"),
		rec(OpInsert, 3, "c"), rec(OpInsert, 4, "d"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir, Options{}, 2)
	if len(got) != 2 || got[0].Epoch != 3 || got[1].Epoch != 4 {
		t.Fatalf("after epoch 2 replayed %+v", got)
	}
	if got := collect(t, dir, Options{}, 99); len(got) != 0 {
		t.Fatalf("after epoch 99 replayed %+v", got)
	}
}

func TestReplayMissingDir(t *testing.T) {
	n, err := Replay(filepath.Join(t.TempDir(), "nope"), Options{}, 0, func(Record) error {
		t.Fatal("apply called")
		return nil
	})
	if n != 0 || err != nil {
		t.Fatalf("missing dir: n=%d err=%v", n, err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for i := uint64(1); i <= 20; i++ {
		mustAppend(t, l, rec(OpInsert, i, "payload-payload-payload"))
		want = append(want, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(seqs))
	}
	got := collect(t, dir, Options{}, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Epoch != want[i] {
			t.Fatalf("record %d epoch %d, want %d (cross-segment order broken)", i, r.Epoch, want[i])
		}
	}
}

// lastSegPath returns the path of the newest segment.
func lastSegPath(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listSegments(faultfs.OS, dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("listSegments: %v %v", seqs, err)
	}
	return filepath.Join(dir, segName(seqs[len(seqs)-1]))
}

func TestTornTailTruncated(t *testing.T) {
	// A crash mid-append leaves a partial final frame; replay must keep
	// every complete frame and truncate the tail in place.
	for _, cut := range []int64{1, 5, 9, 12} { // inside header, inside payload
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, l, rec(OpInsert, 1, "aaaa"), rec(OpInsert, 2, "bbbb"))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := lastSegPath(t, dir)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			frame := int64(headerLen + 1 + 8 + 4) // one "aaaa" frame
			// Tear the second frame: keep `cut` bytes of it.
			if err := os.Truncate(path, fi.Size()-frame+cut); err != nil {
				t.Fatal(err)
			}

			got := collect(t, dir, Options{}, 0)
			if len(got) != 1 || got[0].Epoch != 1 {
				t.Fatalf("after torn tail replayed %+v, want just epoch 1", got)
			}
			// The torn bytes are gone: a re-replay sees a clean log.
			fi2, _ := os.Stat(path)
			if want := int64(len(magic)) + frame; fi2.Size() != want {
				t.Fatalf("segment size %d after truncation, want %d", fi2.Size(), want)
			}
		})
	}
}

// embeddingRecord returns an insert record shaped like a real one: one
// modality of dim float32s at the scale of a unit-norm embedding (about
// ±1/√dim), laid out as the engine logs it.
func embeddingRecord(rng *rand.Rand, epoch uint64, dim int) Record {
	data := binary.LittleEndian.AppendUint32(nil, 1)
	data = binary.LittleEndian.AppendUint32(data, uint32(dim))
	for range dim {
		x := float32(rng.NormFloat64() / math.Sqrt(float64(dim)))
		data = binary.LittleEndian.AppendUint32(data, math.Float32bits(x))
	}
	return Record{Op: OpInsert, Epoch: epoch, Data: data}
}

// embeddingLog returns four 768-d insert records and the segment body
// (the bytes after the magic) that logs them.
func embeddingLog() ([]Record, []byte) {
	rng := rand.New(rand.NewSource(1))
	var recs []Record
	var body []byte
	for epoch := uint64(1); epoch <= 4; epoch++ {
		r := embeddingRecord(rng, epoch, 768)
		recs = append(recs, r)
		body = append(body, encodeFrame(r)...)
	}
	return recs, body
}

// TestTornEmbeddingTailAllocBounded tears the last of four 768-d insert
// records halfway. Its float32 bytes read as frame lengths just under
// maxPayload, so recovery must bound every length by the segment size
// before it allocates for one.
func TestTornEmbeddingTailAllocBounded(t *testing.T) {
	dir := t.TempDir()
	recs, body := embeddingLog()
	last := len(encodeFrame(recs[3]))
	torn := slices.Concat(magic[:], body[:len(body)-last/2])
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := collect(t, dir, Options{}, 0)
	runtime.ReadMemStats(&after)

	if len(got) != 3 {
		t.Fatalf("replayed %d records, want the 3 complete ones", len(got))
	}
	for i, r := range got {
		if r.Epoch != recs[i].Epoch || !bytes.Equal(r.Data, recs[i].Data) {
			t.Fatalf("record %d = epoch %d, %d bytes; want epoch %d, %d bytes", i, r.Epoch, len(r.Data), recs[i].Epoch, len(recs[i].Data))
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(magic) + len(body) - last); fi.Size() != want {
		t.Fatalf("segment size %d after truncation, want %d", fi.Size(), want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("replay allocated %d bytes, want < 16 MiB", alloc)
	}
}

func TestMidLogCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, rec(OpInsert, 1, "aaaa"), rec(OpInsert, 2, "bbbb"), rec(OpInsert, 3, "cccc"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := lastSegPath(t, dir)
	// Flip a payload byte of the MIDDLE frame: valid frames follow, so
	// this is corruption, not a torn tail.
	frame := int64(headerLen + 1 + 8 + 4)
	if err := faultfs.FlipByte(path, int64(len(magic))+frame+headerLen+2, 0xff); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, Options{}, 0, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay = %v, want ErrCorrupt", err)
	}
}

func TestCorruptionInNonFinalSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 10}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, rec(OpInsert, 1, "aaaa"), rec(OpInsert, 2, "bbbb"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(faultfs.OS, dir)
	if len(seqs) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(seqs))
	}
	// Corrupt the LAST frame of the FIRST segment: even though nothing
	// follows it within its file, a later segment exists, so this must
	// be an error, not a truncation.
	if err := faultfs.FlipByte(filepath.Join(dir, segName(seqs[0])), int64(len(magic))+headerLen+2, 0xff); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, Options{}, 0, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay = %v, want ErrCorrupt", err)
	}
}

func TestBadCRCOnFinalFrameTruncates(t *testing.T) {
	// A bit-flip in the very last frame is indistinguishable from a torn
	// write of that frame; standard WAL behavior is to truncate it.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, rec(OpInsert, 1, "aaaa"), rec(OpInsert, 2, "bbbb"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := lastSegPath(t, dir)
	frame := int64(headerLen + 1 + 8 + 4)
	if err := faultfs.FlipByte(path, int64(len(magic))+frame+headerLen+2, 0xff); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir, Options{}, 0)
	if len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("replayed %+v, want just epoch 1", got)
	}
}

func TestTruncateDropsOldSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, rec(OpInsert, 1, "aaaa"), rec(OpInsert, 2, "bbbb"), rec(OpInsert, 3, "cccc"))
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, rec(OpInsert, 4, "dddd"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir, Options{}, 0)
	if len(got) != 1 || got[0].Epoch != 4 {
		t.Fatalf("after Truncate replayed %+v, want just epoch 4", got)
	}
}

func TestAppendFailurePropagates(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.Wrap(faultfs.OS)
	l, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("disk full")
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Err: boom})
	if err := l.Append(rec(OpInsert, 1, "x")); !errors.Is(err, boom) {
		t.Fatalf("Append = %v, want %v", err, boom)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncInterval, SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, rec(OpInsert, 1, "x"))
	time.Sleep(30 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir, Options{}, 0); len(got) != 1 {
		t.Fatalf("replayed %+v", got)
	}
}

func TestSyncIntervalBackgroundFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.Wrap(faultfs.OS)
	l, err := Open(dir, Options{FS: ffs, Policy: SyncInterval, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("bg sync boom")
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Err: boom})
	mustAppend(t, l, rec(OpInsert, 1, "x"))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := l.Append(rec(OpInsert, 2, "y")); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("Append = %v, want wrapped %v", err, boom)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("background sync failure never surfaced on Append")
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "off": SyncOff} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestInsaneLengthAtTailTruncates(t *testing.T) {
	// A torn header can leave garbage length bytes; if nothing valid
	// follows, treat as torn tail.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, rec(OpInsert, 1, "aaaa"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := lastSegPath(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var junk [8]byte
	binary.LittleEndian.PutUint32(junk[0:4], 0xfffffff0)
	if _, err := f.Write(junk[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got := collect(t, dir, Options{}, 0)
	if len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("replayed %+v, want just epoch 1", got)
	}
}

// FuzzReplay replays one segment whose body (the bytes after the magic)
// is the fuzz input. Replay must never panic; every record it applies
// must re-encode to the bytes it was read from; and replaying the
// directory again — now with any torn tail truncated — must return the
// same records, with no error when the first replay had none and with
// ErrCorrupt when the first one reported corruption.
func FuzzReplay(f *testing.F) {
	pair := slices.Concat(encodeFrame(rec(OpInsert, 1, "aaaa")), encodeFrame(rec(OpInsert, 2, "bbbb")))
	f.Add(pair)
	frame := len(pair) / 2
	for _, cut := range []int{1, 5, 9, 12} {
		f.Add(pair[:frame+cut])
	}
	recs, body := embeddingLog()
	f.Add(body)
	f.Add(body[:len(body)-len(encodeFrame(recs[3]))/2])

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		seg := slices.Concat(magic[:], body)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() ([]Record, error) {
			var got []Record
			_, err := Replay(dir, Options{}, 0, func(r Record) error {
				got = append(got, Record{Op: r.Op, Epoch: r.Epoch, Data: slices.Clone(r.Data)})
				return nil
			})
			return got, err
		}
		first, err1 := replay()
		if err1 != nil && !errors.Is(err1, ErrCorrupt) {
			t.Fatalf("Replay: %v", err1)
		}
		// Frames are contiguous from the magic on; epoch-0 frames are
		// valid but not applied (the replay starts after epoch 0), so walk
		// past them by their headers.
		off := len(magic)
		for i, r := range first {
			for binary.LittleEndian.Uint64(seg[off+headerLen+1:]) == 0 {
				off += headerLen + int(binary.LittleEndian.Uint32(seg[off:]))
			}
			enc := encodeFrame(r)
			if !bytes.Equal(seg[off:off+len(enc)], enc) {
				t.Fatalf("record %d re-encodes to %x, read from %x", i, enc, seg[off:off+len(enc)])
			}
			off += len(enc)
		}
		second, err2 := replay()
		if (err1 == nil) != (err2 == nil) || (err1 != nil && !errors.Is(err2, ErrCorrupt)) {
			t.Fatalf("second Replay err = %v, first was %v", err2, err1)
		}
		if len(second) != len(first) {
			t.Fatalf("second Replay applied %d records, first %d", len(second), len(first))
		}
		for i := range first {
			if first[i].Op != second[i].Op || first[i].Epoch != second[i].Epoch || !bytes.Equal(first[i].Data, second[i].Data) {
				t.Fatalf("record %d differs between replays: %+v vs %+v", i, first[i], second[i])
			}
		}
	})
}
