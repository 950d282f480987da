package must

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"must/internal/faultfs"
	"must/internal/wal"
)

// DurableService wraps any Service with a write-ahead log: every insert,
// delete, and (re)build is applied to the engine and logged, and the
// call returns — the ack — only once its record is on stable storage
// (under wal.SyncAlways; the other policies ack after the write). After
// a crash, OpenDurable replays the log on top of the newest snapshot,
// restoring exactly the acked state.
//
// Records carry the engine's mutation epoch after the record applied,
// and snapshots (MUSTEG2) persist their epoch — so replay skips records
// the snapshot already captured, and stale WAL segments left behind by a
// failed truncation are harmless.
//
// A mutation applies and writes its record under one internal mutex, so
// log order is apply order is ID order (IDs are positional); it waits
// for the fsync after releasing it. The fsync is a group commit
// (wal.Log.Commit): while one writer's fsync is in flight the next
// writers apply and log, and a single fsync then covers all of them —
// writers never queue behind each other's disk flush. Snapshots take
// the same mutex, which is what makes a snapshot's epoch exact;
// searches are untouched and run concurrently. Weight changes
// (SetWeights, LearnWeights) and EnableQuantization are serialized but
// NOT logged — they become durable at the next snapshot, matching their
// role as control-plane settings rather than corpus mutations.
//
// A mutation whose WAL write or fsync fails is NOT acked and poisons the
// service: it, every mutation still waiting for its fsync, and every
// later one fail with an error wrapping ErrWALFailed until restart.
// This is what keeps the acked set inside the recoverable one — the
// acked mutations are always a prefix of the durable log. The in-memory
// engine may be ahead of that prefix by the mutations in flight when the
// disk failed (one per concurrent writer), which is why nothing more is
// accepted on top: replay would diverge.
type DurableService struct {
	Service // reads and searches delegate to the wrapped engine

	fs faultfs.FS

	mu       sync.Mutex
	log      *wal.Log
	poisoned error
	failed   chan struct{} // closed when poisoned is set
}

// ErrWALFailed is wrapped by every error a poisoned DurableService
// returns: the log could not be written or fsynced, so the service
// rejects writes until it is restarted and the log replayed. It is the
// server's fault, not the caller's.
var ErrWALFailed = errors.New("must: wal append failed")

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Fsync is the WAL durability policy: "always" (default — fsync per
	// record; an acked write survives power loss), "interval"
	// (background fsync every FsyncInterval; power loss may lose the
	// tail), or "off" (OS page cache only; survives process crash, not
	// power loss).
	Fsync string
	// FsyncInterval is the background fsync period under Fsync
	// "interval" (default 50ms).
	FsyncInterval time.Duration
	// SegmentBytes caps a WAL segment file before rotation (default
	// 64 MiB).
	SegmentBytes int64

	// fs routes all WAL and snapshot I/O through a fault-injection seam
	// (crash-matrix tests); nil means the real filesystem.
	fs faultfs.FS
}

func (o DurableOptions) wal() (wal.Options, error) {
	policy := wal.SyncAlways
	if o.Fsync != "" {
		var err error
		if policy, err = wal.ParseSyncPolicy(o.Fsync); err != nil {
			return wal.Options{}, err
		}
	}
	return wal.Options{
		FS:           o.fs,
		Policy:       policy,
		SyncInterval: o.FsyncInterval,
		SegmentBytes: o.SegmentBytes,
	}, nil
}

// OpenDurable replays the WAL in dir on top of svc's current state
// (skipping records with epoch ≤ svc.Epoch(), i.e. already in the
// snapshot svc was restored from), then opens the log for appends and
// returns the wrapped service. It reports how many records replayed.
// A missing or empty dir replays nothing and starts a fresh log.
func OpenDurable(svc Service, dir string, dopts DurableOptions) (*DurableService, int, error) {
	opts, err := dopts.wal()
	if err != nil {
		return nil, 0, err
	}
	replayed, err := wal.Replay(dir, opts, svc.Epoch(), func(rec wal.Record) error {
		return applyRecord(svc, rec)
	})
	if err != nil {
		return nil, replayed, fmt.Errorf("must: wal replay: %w", err)
	}
	l, err := wal.Open(dir, opts)
	if err != nil {
		return nil, replayed, fmt.Errorf("must: opening wal: %w", err)
	}
	fs := opts.FS
	if fs == nil {
		fs = faultfs.OS
	}
	return &DurableService{Service: svc, fs: fs, log: l, failed: make(chan struct{})}, replayed, nil
}

// applyRecord re-applies one logged mutation during recovery.
func applyRecord(svc Service, rec wal.Record) error {
	switch rec.Op {
	case wal.OpInsert:
		o, err := decodeObject(rec.Data)
		if err != nil {
			return err
		}
		_, err = svc.InsertObject(o)
		return err
	case wal.OpDelete:
		if len(rec.Data) != 8 {
			return fmt.Errorf("must: delete record has %d data bytes, want 8", len(rec.Data))
		}
		return svc.Delete(int64(binary.LittleEndian.Uint64(rec.Data)))
	case wal.OpRebuild:
		_, err := BuildOrRebuild(svc)
		return err
	case wal.OpRebuildShard:
		if len(rec.Data) != 4 {
			return fmt.Errorf("must: rebuild-shard record has %d data bytes, want 4", len(rec.Data))
		}
		// The record was logged on a built engine at this exact epoch, so
		// replay reaches here with the shard built too — no Build probe.
		return svc.RebuildShard(int(binary.LittleEndian.Uint32(rec.Data)))
	}
	return fmt.Errorf("must: unknown wal op %d", rec.Op)
}

// mutate runs one logged mutation: poison check, apply and WAL write
// under d.mu — Epoch() there is exactly the post-apply epoch — then the
// wait for the fsync with d.mu released, so the next writer applies and
// logs while this one's fsync is in flight and shares the one after it.
func (d *DurableService) mutate(op wal.Op, data []byte, apply func() error) error {
	d.mu.Lock()
	if d.poisoned != nil {
		d.mu.Unlock()
		return d.poisoned
	}
	if err := apply(); err != nil {
		d.mu.Unlock()
		return err
	}
	lsn, err := d.log.Write(wal.Record{Op: op, Epoch: d.Service.Epoch(), Data: data})
	if err != nil {
		err = d.poisonLocked(err)
	}
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if err := d.log.Commit(lsn); err != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.poisonLocked(err)
	}
	return nil
}

// poisonLocked records the first WAL failure and returns the poison
// error. Caller holds d.mu.
func (d *DurableService) poisonLocked(cause error) error {
	if d.poisoned == nil {
		d.poisoned = fmt.Errorf("%w; rejecting writes until restart: %w", ErrWALFailed, cause)
		close(d.failed)
	}
	return d.poisoned
}

// Failed returns a channel that is closed when the service poisons
// itself; Err then reports the cause.
func (d *DurableService) Failed() <-chan struct{} { return d.failed }

// Err returns the poison error, or nil while the service accepts writes.
// It takes no lock, so a stats scrape never waits behind a rebuild.
func (d *DurableService) Err() error {
	select {
	case <-d.failed:
		return d.poisoned // written once, before failed was closed
	default:
		return nil
	}
}

// WALStats is the write-ahead log's block of /v1/stats and /metrics.
type WALStats struct {
	// Records is the number of records logged since the log was opened.
	Records uint64
	// Fsyncs is the number of fsyncs of log data; under Fsync "always"
	// Records/Fsyncs is the mean number of writes one fsync acked.
	Fsyncs uint64
	// FsyncSeconds is the total time spent in those fsyncs.
	FsyncSeconds float64
	// FsyncBounds are latency-bucket upper bounds in seconds and
	// FsyncBuckets the (non-cumulative) fsync count in each.
	FsyncBounds  []float64
	FsyncBuckets []uint64
	// Poisoned reports that a WAL failure has made the service reject
	// writes until restart.
	Poisoned bool
}

// WALStats reports the log's counters.
func (d *DurableService) WALStats() WALStats {
	st := d.log.Stats()
	return WALStats{
		Records:      st.Records,
		Fsyncs:       st.Fsyncs,
		FsyncSeconds: st.FsyncSeconds,
		FsyncBounds:  st.FsyncBounds,
		FsyncBuckets: st.FsyncBuckets,
		Poisoned:     d.Err() != nil,
	}
}

func (d *DurableService) Insert(v NamedVectors) (id int64, err error) {
	data := encodeNamed(d.Service.Schema(), v)
	err = d.mutate(wal.OpInsert, data, func() (err error) {
		id, err = d.Service.Insert(v)
		return err
	})
	return id, err
}

func (d *DurableService) InsertObject(o Object) (id int64, err error) {
	err = d.mutate(wal.OpInsert, encodeObject(o), func() (err error) {
		id, err = d.Service.InsertObject(o)
		return err
	})
	return id, err
}

func (d *DurableService) Delete(id int64) error {
	var data [8]byte
	binary.LittleEndian.PutUint64(data[:], uint64(id))
	return d.mutate(wal.OpDelete, data[:], func() error { return d.Service.Delete(id) })
}

// Build logs an OpRebuild record so that recovery can replay later
// deletes (which require a built index) and reproduce the graph — builds
// are bit-deterministic for a given corpus, weights, and seed.
func (d *DurableService) Build() error {
	return d.mutate(wal.OpRebuild, nil, d.Service.Build)
}

func (d *DurableService) Rebuild() error {
	return d.mutate(wal.OpRebuild, nil, d.Service.Rebuild)
}

// RebuildShard rebuilds one shard of the wrapped service and logs an
// OpRebuildShard record. Single-shard rebuilds get their own op (rather
// than OpRebuild) because a full rebuild bumps every shard's epoch while
// this bumps one — epoch-guarded replay must reproduce the logged epoch
// sequence exactly.
func (d *DurableService) RebuildShard(j int) error {
	var data [4]byte
	binary.LittleEndian.PutUint32(data[:], uint32(j))
	return d.mutate(wal.OpRebuildShard, data[:], func() error { return d.Service.RebuildShard(j) })
}

func (d *DurableService) SetWeights(w Weights) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.poisoned != nil {
		return d.poisoned
	}
	return d.Service.SetWeights(w)
}

func (d *DurableService) LearnWeights(queries []NamedVectors, positives []int64, cfg WeightConfig) (Weights, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.poisoned != nil {
		return nil, d.poisoned
	}
	return d.Service.LearnWeights(queries, positives, cfg)
}

// Checkpoint writes a durable snapshot (temp file + fsync + rename +
// parent-dir fsync) and then truncates the WAL — every record logged so
// far has epoch ≤ the snapshot's, so they would be skipped on replay
// anyway; dropping them just keeps recovery fast. Mutations block for
// the duration, which is what makes the snapshot's epoch exact. Writers
// still waiting for their fsync are acked by the truncation, which
// settles the log first; their records are in the snapshot as well.
//
// A truncation failure after a successful snapshot is returned wrapped
// so the caller can log-and-continue: the snapshot IS durable and stale
// segments are harmless.
func (d *DurableService) Checkpoint(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := writeSnapshot(d.fs, d.Service, path); err != nil {
		return err
	}
	if err := d.log.Truncate(); err != nil {
		return fmt.Errorf("must: snapshot durable, but wal truncate failed (stale segments are harmless): %w", err)
	}
	return nil
}

// Close syncs and closes the WAL. The wrapped engine needs no closing.
func (d *DurableService) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Close()
}

// WriteSnapshot saves svc to path with full crash safety: the bytes are
// written to a temp file, fsynced, renamed over path, and the parent
// directory fsynced — only then is the snapshot durable. A crash at any
// intermediate point leaves the previous snapshot intact.
func WriteSnapshot(svc Service, path string) error {
	return writeSnapshot(faultfs.OS, svc, path)
}

// writeSnapshot routes all I/O through fs so fault-injection tests can
// exercise every step.
func writeSnapshot(fs faultfs.FS, svc Service, path string) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := svc.SaveTo(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// WAL record payloads, little-endian:
//
//	insert: m uint32, m × (dim uint32, dim × float32)  — raw (pre-
//	  normalization) vectors in schema order; re-inserting re-normalizes
//	  deterministically, so replay reproduces the stored rows bit-exactly
//	delete: id uint64
//	rebuild: empty

func encodeObject(o Object) []byte {
	size := 4
	for _, v := range o {
		size += 4 + 4*len(v)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf, uint32(len(o)))
	off := 4
	for _, v := range o {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(v)))
		off += 4
		for _, x := range v {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(x))
			off += 4
		}
	}
	return buf
}

// encodeNamed encodes v in sc's order. A modality missing from v encodes
// as zero-length — such a record is never logged, because the engine
// rejects the insert first.
func encodeNamed(sc Schema, v NamedVectors) []byte {
	o := make(Object, len(sc))
	for i, m := range sc {
		o[i] = v[m.Name]
	}
	return encodeObject(o)
}

func decodeObject(data []byte) (Object, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("must: insert record too short (%d bytes)", len(data))
	}
	m := binary.LittleEndian.Uint32(data)
	if m > 64 {
		return nil, fmt.Errorf("must: insert record has unreasonable modality count %d", m)
	}
	o := make(Object, m)
	off := 4
	for i := range o {
		if len(data)-off < 4 {
			return nil, fmt.Errorf("must: insert record truncated at modality %d", i)
		}
		dim := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if dim < 0 || len(data)-off < 4*dim {
			return nil, fmt.Errorf("must: insert record truncated in modality %d (dim %d)", i, dim)
		}
		v := make([]float32, dim)
		for j := range v {
			v[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
		o[i] = v
	}
	if off != len(data) {
		return nil, fmt.Errorf("must: insert record has %d trailing bytes", len(data)-off)
	}
	return o, nil
}
