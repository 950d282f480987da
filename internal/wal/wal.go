// Package wal implements the write-ahead log behind mustd's durable
// ingest. Every mutation (insert, delete, rebuild) is appended as a
// CRC32C-framed record BEFORE the client is acked; after a crash, the
// daemon replays the log on top of the newest snapshot to restore the
// exact acked state.
//
// On-disk layout: a directory of segment files named
// wal-00000000000000000001.seg, each starting with an 8-byte magic
// ("MUSTWL1\n") followed by frames:
//
//	u32 payload length (LE) | u32 CRC32C(payload) (LE) | payload
//
// payload = op (u8) | epoch (u64 LE) | data. The epoch is the engine's
// mutation counter AFTER the record applied; snapshots persist their
// epoch, so replay skips records the snapshot already captured.
//
// Recovery semantics: a bad frame in the FINAL segment with nothing
// valid after it is a torn tail from a crash mid-append — it is
// truncated away and the log stays usable. A bad frame in any earlier
// segment, or one followed by a valid frame, is real corruption and
// recovery fails loudly rather than silently serving a partial corpus.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"must/internal/faultfs"
)

// Op tags what a record does on replay.
type Op uint8

const (
	// OpInsert carries an encoded object; replay re-inserts it.
	OpInsert Op = 1
	// OpDelete carries a u64 global ID; replay deletes it.
	OpDelete Op = 2
	// OpRebuild carries no data; replay builds (if unbuilt) or rebuilds.
	// Logged so that a replayed delete never lands on an unbuilt engine.
	OpRebuild Op = 3
	// OpRebuildShard carries a u32 shard index; replay rebuilds that one
	// shard. Logged instead of OpRebuild for maintenance-paced
	// single-shard compactions: a full rebuild bumps every shard's epoch
	// while a shard rebuild bumps one, and epoch-guarded replay relies on
	// reproducing exactly the logged epoch sequence.
	OpRebuildShard Op = 4
)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: zero acked writes lost on
	// crash or power failure.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most every Options.SyncInterval: bounded
	// loss window, near-SyncOff throughput.
	SyncInterval
	// SyncOff never fsyncs from the WAL (the OS flushes on its own
	// schedule): fastest, loses recent acks on power failure but not on
	// process crash.
	SyncOff
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval, or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return "unknown"
}

// Record is one logged mutation.
type Record struct {
	Op    Op
	Epoch uint64 // engine epoch after this mutation applied
	Data  []byte
}

// ErrCorrupt reports unrecoverable mid-log corruption (as opposed to a
// torn tail, which recovery repairs silently).
var ErrCorrupt = errors.New("wal: corrupt record before end of log")

// Options tunes a WAL.
type Options struct {
	// FS is the filesystem seam; nil means faultfs.OS.
	FS faultfs.FS
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// SyncInterval is the flush period under SyncInterval (default 50ms).
	SyncInterval time.Duration
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 64 MiB).
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

var magic = [8]byte{'M', 'U', 'S', 'T', 'W', 'L', '1', '\n'}

const (
	headerLen = 8 // frame header: length + crc
	// maxPayload bounds a single record; anything larger read back is
	// treated as corruption rather than an allocation request.
	maxPayload = 1 << 30
)

// castagnoli is the CRC32C table (same polynomial iSCSI/ext4 use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only WAL over a directory of segments, safe for
// concurrent use.
//
// Logging a record has two steps. Write frames it onto the current
// segment (page cache only) and returns its log sequence number; Commit
// returns once that record is on stable storage. Under SyncAlways the
// fsync is a group commit: the first Commit caller to find no fsync in
// flight becomes the syncer, drops the mutex, fsyncs, and publishes
// every record written before its fsync began as durable; callers that
// arrive meanwhile wait for it and are covered by the next one — so N
// concurrent writers share one fsync instead of queueing N, with no
// timer or batch window. Append is Write followed by Commit for callers
// with nothing to overlap.
//
// The first write or fsync failure is sticky: durability of anything
// not yet committed is unknown, so every later Write and every waiting
// Commit fails. Rotation, Truncate and Close settle the log first (wait
// out the fsync in flight, fsync what is still pending), so a record is
// never stranded in a segment nobody will sync again.
type Log struct {
	dir  string
	opts Options

	mu sync.Mutex
	// syncDone is signalled whenever syncing drops or synced advances.
	syncDone *sync.Cond
	seg      faultfs.File // current segment, opened for append
	segSeq   uint64       // sequence number of the current segment
	segSize  int64
	closed   bool

	written uint64 // LSN of the newest record written
	synced  uint64 // records with LSN <= synced are on stable storage
	syncing bool   // a Commit caller is fsyncing seg outside mu
	err     error  // first write or fsync failure; sticky

	fsyncs       uint64
	fsyncSeconds float64
	fsyncHist    [len(fsyncBounds)]uint64

	flushStop chan struct{}
	flushDone chan struct{}
}

// fsyncBounds are the upper bounds, in seconds, of the fsync latency
// buckets: 50µs (a page-cache-speed virtual disk) to 1s.
var fsyncBounds = [...]float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// Stats is a snapshot of a log's counters since Open.
type Stats struct {
	// Records is the number of records written.
	Records uint64
	// Fsyncs is the number of segment-data fsyncs; Records/Fsyncs is the
	// mean commit-group size under SyncAlways.
	Fsyncs uint64
	// FsyncSeconds is the total time spent in those fsyncs.
	FsyncSeconds float64
	// FsyncBounds are bucket upper bounds in seconds and FsyncBuckets the
	// (non-cumulative) number of fsyncs that fell at or under each; the
	// ones slower than the last bound are counted in Fsyncs only.
	FsyncBounds  []float64
	FsyncBuckets []uint64
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Records:      l.written,
		Fsyncs:       l.fsyncs,
		FsyncSeconds: l.fsyncSeconds,
		FsyncBounds:  fsyncBounds[:],
		FsyncBuckets: append([]uint64(nil), l.fsyncHist[:]...),
	}
}

func segName(seq uint64) string {
	return fmt.Sprintf("wal-%020d.seg", seq)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the segment sequence numbers in dir, ascending.
func listSegments(fs faultfs.FS, dir string) ([]uint64, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open opens (creating if needed) the WAL in dir. It does NOT replay —
// call Replay first on the recovery path, then Open to append. Opening
// always rotates to a fresh segment, so a torn tail left behind by
// Replay's truncation can never be appended to mid-frame.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := listSegments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	l := &Log{dir: dir, opts: opts, flushStop: make(chan struct{}), flushDone: make(chan struct{})}
	l.syncDone = sync.NewCond(&l.mu)
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		go l.flushLoop()
	} else {
		close(l.flushDone)
	}
	return l, nil
}

// openSegmentLocked creates segment seq and makes it current, closing
// the previous one. Caller holds l.mu (or is the constructor) and has
// settled the log.
func (l *Log) openSegmentLocked(seq uint64) error {
	path := filepath.Join(l.dir, segName(seq))
	f, err := l.opts.FS.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(magic[:]); err != nil {
		_ = f.Close()
		return err
	}
	if l.opts.Policy == SyncAlways {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
	}
	// Make the new segment's directory entry durable before anything is
	// logged into it.
	if l.opts.Policy != SyncOff {
		if err := l.opts.FS.SyncDir(l.dir); err != nil {
			_ = f.Close()
			return err
		}
	}
	if l.seg != nil {
		if err := l.seg.Close(); err != nil {
			_ = f.Close()
			return err
		}
	}
	l.seg, l.segSeq, l.segSize = f, seq, int64(len(magic))
	return nil
}

// Append logs one record and, under SyncAlways, fsyncs before
// returning. When Append returns nil under SyncAlways the record is
// durable; a non-nil error means durability is unknown and the caller
// must NOT ack the mutation.
func (l *Log) Append(rec Record) error {
	lsn, err := l.Write(rec)
	if err != nil {
		return err
	}
	return l.Commit(lsn)
}

// Write appends one record to the current segment — page cache only —
// and returns its log sequence number for Commit. Records reach the log
// in the order Write calls acquire the log's mutex; a caller that needs
// log order to match some other order serializes its Write calls.
func (l *Log) Write(rec Record) (lsn uint64, err error) {
	frame := encodeFrame(rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: appending to closed log")
	}
	if l.err != nil {
		return 0, fmt.Errorf("wal: log failed earlier: %w", l.err)
	}
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.settleLocked(); err != nil {
			return 0, err
		}
		// Settling can wait with mu dropped; another Write may have
		// rotated meanwhile.
		if l.segSize >= l.opts.SegmentBytes {
			if err := l.openSegmentLocked(l.segSeq + 1); err != nil {
				return 0, err
			}
		}
	}
	if _, err := l.seg.Write(frame); err != nil {
		// A torn frame may sit at the tail now; appending after it would
		// turn a recoverable torn tail into mid-log corruption.
		return 0, l.failLocked(err)
	}
	l.segSize += int64(len(frame))
	l.written++
	return l.written, nil
}

// Commit returns once record lsn is on stable storage under SyncAlways;
// under the other policies it returns at once (the flusher or the OS
// owns durability). A non-nil error means durability is unknown.
func (l *Log) Commit(lsn uint64) error {
	if l.opts.Policy != SyncAlways {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < lsn {
		switch {
		case l.err != nil:
			return l.err
		case l.seg == nil: // closed, and Close covers every record written
			return errors.New("wal: committing an unwritten record on a closed log")
		case l.syncing:
			// The fsync in flight may have begun before lsn was written;
			// wait it out and look again.
			l.syncDone.Wait()
		default:
			// Become the syncer for everything written so far. Rotation
			// and Close wait for syncing to drop, so seg stays open.
			l.syncing = true
			seg, target := l.seg, l.written
			l.mu.Unlock()
			start := time.Now()
			err := seg.Sync()
			took := time.Since(start)
			l.mu.Lock()
			l.syncing = false
			_ = l.fsyncedLocked(target, took, err) // the loop sees l.err
		}
	}
	return nil
}

// failLocked records the log's first failure and returns the sticky one.
func (l *Log) failLocked(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// fsyncedLocked books one finished segment fsync that began when target
// was the newest record: counters, then either the sticky failure or
// synced = target, and a wake-up for everyone waiting on the outcome.
func (l *Log) fsyncedLocked(target uint64, took time.Duration, err error) error {
	sec := took.Seconds()
	l.fsyncs++
	l.fsyncSeconds += sec
	for i, b := range fsyncBounds {
		if sec <= b {
			l.fsyncHist[i]++
			break
		}
	}
	if err != nil {
		err = l.failLocked(err)
	} else {
		l.synced = target
	}
	l.syncDone.Broadcast()
	return err
}

// settleLocked makes every record written so far durable (SyncOff
// excepted) and releases the Commit callers waiting on them: it waits
// out the fsync in flight — dropping mu meanwhile — then fsyncs whatever
// that one did not cover. Called before the current segment is retired
// or closed.
func (l *Log) settleLocked() error {
	for l.syncing {
		l.syncDone.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.seg == nil {
		return errors.New("wal: log closed")
	}
	if l.opts.Policy == SyncOff || l.synced == l.written {
		return nil
	}
	start := time.Now()
	err := l.seg.Sync()
	return l.fsyncedLocked(l.written, time.Since(start), err)
}

func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				// A failure is sticky and surfaces on the next Write, so
				// callers learn their earlier acks may not be durable.
				_ = l.settleLocked()
			}
			l.mu.Unlock()
		case <-l.flushStop:
			return
		}
	}
}

// Truncate discards every segment before the current one and rotates to
// a fresh segment. Call it right after a successful snapshot: all
// records logged so far have epoch ≤ the snapshot's, so the epoch guard
// makes them no-ops on replay — dropping them just keeps recovery fast.
// Failure here is safe to ignore for correctness (stale segments are
// harmless), but is still reported so the caller can log it.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: truncating closed log")
	}
	if err := l.settleLocked(); err != nil {
		return err
	}
	old := l.segSeq
	if err := l.openSegmentLocked(l.segSeq + 1); err != nil {
		return err
	}
	seqs, err := listSegments(l.opts.FS, l.dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, seq := range seqs {
		if seq > old {
			continue
		}
		if err := l.opts.FS.Remove(filepath.Join(l.dir, segName(seq))); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := l.opts.FS.SyncDir(l.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close makes every written record durable, releasing the Commit
// callers waiting on them, and closes the current segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true // no new Write or Truncate; the flusher stands down
	syncErr := l.settleLocked()
	closeErr := l.seg.Close()
	l.seg = nil
	l.mu.Unlock()
	close(l.flushStop)
	<-l.flushDone
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Dir returns the WAL directory.
func (l *Log) Dir() string { return l.dir }

// encodeFrame lays header, op, epoch and data out in one buffer.
func encodeFrame(rec Record) []byte {
	frame := make([]byte, headerLen+1+8+len(rec.Data))
	payload := frame[headerLen:]
	payload[0] = byte(rec.Op)
	binary.LittleEndian.PutUint64(payload[1:9], rec.Epoch)
	copy(payload[9:], rec.Data)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return frame
}

// Replay scans every segment in dir in order and calls apply for each
// record whose epoch is > afterEpoch. A torn tail in the final segment
// is truncated in place (so a later Open starts from a clean log);
// corruption anywhere else returns an error wrapping ErrCorrupt.
// A missing directory replays nothing.
func Replay(dir string, opts Options, afterEpoch uint64, apply func(Record) error) (replayed int, err error) {
	opts = opts.withDefaults()
	if _, err := opts.FS.Stat(dir); err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	seqs, err := listSegments(opts.FS, dir)
	if err != nil {
		return 0, err
	}
	for i, seq := range seqs {
		final := i == len(seqs)-1
		n, err := replaySegment(opts.FS, filepath.Join(dir, segName(seq)), final, afterEpoch, apply)
		replayed += n
		if err != nil {
			return replayed, fmt.Errorf("segment %s: %w", segName(seq), err)
		}
	}
	return replayed, nil
}

// replaySegment reads one segment. In the final segment a bad frame at
// the tail truncates the file; elsewhere it is ErrCorrupt.
func replaySegment(fs faultfs.FS, path string, final bool, afterEpoch uint64, apply func(Record) error) (int, error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()

	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if final && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			// Crash before the magic finished landing: the whole segment
			// is a torn tail.
			return 0, fs.Truncate(path, 0)
		}
		return 0, fmt.Errorf("reading magic: %w", err)
	}
	if hdr != magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:])
	}
	// Every frame must end inside the segment: bounding lengths by the
	// size read once here keeps a garbage length from allocating.
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, fmt.Errorf("sizing segment: %w", err)
	}

	offset := int64(len(magic))
	applied := 0
	// One frame of lookahead: a bad frame is only "torn" if nothing
	// valid follows it. decode errors carry the reason for the corrupt
	// case.
	rec, end, derr := decodeFrame(f, offset, size)
	for {
		if derr != nil {
			if !final {
				return applied, fmt.Errorf("%w at offset %d: %v", ErrCorrupt, offset, derr)
			}
			// Final segment: distinguish torn tail from mid-log damage by
			// scanning ahead for any valid frame.
			if rest, ok := anyValidFrameAfter(f, offset, size); ok {
				return applied, fmt.Errorf("%w at offset %d (valid frame follows at %d): %v", ErrCorrupt, offset, rest, derr)
			}
			return applied, fs.Truncate(path, offset)
		}
		if rec == nil { // clean EOF
			return applied, nil
		}
		if rec.Epoch > afterEpoch {
			if err := apply(*rec); err != nil {
				return applied, err
			}
			applied++
		}
		offset = end
		rec, end, derr = decodeFrame(f, offset, size)
	}
}

// decodeFrame reads the frame at offset of a segment of size bytes.
// Returns (nil, offset, nil) on clean EOF, (rec, nextOffset, nil) on
// success, (nil, 0, err) on a bad frame. A frame that would end past
// size is bad before anything is allocated for its payload.
func decodeFrame(f faultfs.File, offset, size int64) (*Record, int64, error) {
	var hdr [headerLen]byte
	n, err := f.ReadAt(hdr[:], offset)
	if n == 0 && err == io.EOF {
		return nil, offset, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("short header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length < 9 || length > maxPayload {
		return nil, 0, fmt.Errorf("insane payload length %d", length)
	}
	if end := offset + headerLen + int64(length); end > size {
		return nil, 0, fmt.Errorf("short payload: frame ends at %d, past the segment's %d bytes", end, size)
	}
	payload := make([]byte, length)
	if _, err := f.ReadAt(payload, offset+headerLen); err != nil {
		return nil, 0, fmt.Errorf("short payload: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, errors.New("crc mismatch")
	}
	rec := &Record{
		Op:    Op(payload[0]),
		Epoch: binary.LittleEndian.Uint64(payload[1:9]),
		Data:  payload[9:],
	}
	return rec, offset + headerLen + int64(length), nil
}

// anyValidFrameAfter scans byte-by-byte past a bad frame looking for a
// later decodable frame — evidence the damage is mid-log corruption
// rather than a torn tail. Returns the offset of the first valid frame.
func anyValidFrameAfter(f faultfs.File, after, size int64) (int64, bool) {
	// The common corruption test flips a byte in one frame; the next
	// frame starts within that frame's length + header. Scan a bounded
	// window to keep recovery O(window) not O(file²).
	const window = 1 << 20
	for off := after + 1; off < after+window; off++ {
		if rec, _, err := decodeFrame(f, off, size); err == nil && rec != nil {
			return off, true
		} else if rec == nil && err == nil {
			return 0, false // hit EOF
		}
	}
	return 0, false
}
