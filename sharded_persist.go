package must

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"must/internal/maint"
	"must/internal/shard"
)

// MUSTSH1 sharded container: a small header followed by one embedded
// MUSTEG2 engine blob per shard, each preceded by its byte length.
//
//	magic   [8]byte  "MUSTSH1\n"
//	shards  uint32   shard count S (1..shard.MaxShards)
//	rr      uint64   round-robin insert cursor
//	S × { size uint64; blob [size]byte }   engine blobs, shard order
//
// The explicit per-blob length lets LoadShardedEngine skip across the
// file to compute section offsets and load every shard in parallel, each
// from its own bounded section (ReadEngine buffers its reader, so an
// unbounded one would read ahead into the next shard).
var shMagic = [8]byte{'M', 'U', 'S', 'T', 'S', 'H', '1', '\n'}

// SaveTo serializes the sharded engine to w in the MUSTSH1 container
// format. One shard's serialized blob is buffered in memory at a time
// (≈1/S of the corpus). Each shard snapshots under its own read lock, so
// saving overlaps serving; for a point-in-time snapshot across shards,
// quiesce writes first (the mustd drain path does).
func (s *ShardedEngine) SaveTo(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, err := w.Write(shMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s.shards))); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, s.rr.Load()); err != nil {
		return err
	}
	var buf bytes.Buffer
	for j, e := range s.shards {
		buf.Reset()
		if err := e.SaveTo(&buf); err != nil {
			return fmt.Errorf("must: shard %d: %w", j, err)
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(buf.Len())); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// readShardedHeader validates the MUSTSH1 magic and returns (S, rr).
func readShardedHeader(r io.Reader) (int, uint64, error) {
	var got [8]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return 0, 0, fmt.Errorf("must: reading sharded magic: %w", err)
	}
	if got != shMagic {
		return 0, 0, fmt.Errorf("must: bad sharded engine magic %q", got[:])
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return 0, 0, fmt.Errorf("must: reading shard count: %w", err)
	}
	if err := shard.Validate(int(n)); err != nil {
		return 0, 0, fmt.Errorf("must: %w", err)
	}
	var rr uint64
	if err := binary.Read(r, binary.LittleEndian, &rr); err != nil {
		return 0, 0, fmt.Errorf("must: reading insert cursor: %w", err)
	}
	return int(n), rr, nil
}

// assembleSharded wires loaded per-shard engines back into a
// ShardedEngine, rejecting blobs whose schemas disagree.
func assembleSharded(shards []*Engine, rr uint64) (*ShardedEngine, error) {
	s := &ShardedEngine{
		shards:  shards,
		shardMu: make([]sync.Mutex, len(shards)),
		state:   make([]atomic.Uint32, len(shards)),
		health:  newShardHealth(len(shards), maint.BreakerConfig{}),
	}
	s.schema = shards[0].Schema()
	want := s.schema.Names()
	for j, e := range shards {
		sc := e.Schema()
		if len(sc) != len(s.schema) {
			return nil, fmt.Errorf("must: shard %d schema has %d modalities, shard 0 has %d", j, len(sc), len(s.schema))
		}
		for i, m := range sc {
			if m.Name != want[i] || m.Dim != s.schema[i].Dim {
				return nil, fmt.Errorf("must: shard %d schema modality %d (%s/%d) disagrees with shard 0 (%s/%d)",
					j, i, m.Name, m.Dim, want[i], s.schema[i].Dim)
			}
		}
		if e.f != nil {
			s.state[j].Store(uint32(ShardBuilt))
			s.builtShards.Add(1)
		}
	}
	s.rr.Store(rr)
	return s, nil
}

// LoadShardedEngine reads a MUSTSH1 container from the file at path,
// loading all shards in parallel (each from its own file section).
func LoadShardedEngine(path string) (*ShardedEngine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n, rr, err := readShardedHeader(f)
	if err != nil {
		return nil, err
	}
	// Walk the size prefixes to compute each shard's file section.
	offsets := make([]int64, n)
	sizes := make([]int64, n)
	off := int64(len(shMagic) + 4 + 8)
	var szBuf [8]byte
	for j := 0; j < n; j++ {
		if _, err := f.ReadAt(szBuf[:], off); err != nil {
			return nil, fmt.Errorf("must: shard %d: reading blob size: %w", j, err)
		}
		size := int64(binary.LittleEndian.Uint64(szBuf[:]))
		// Compared against the bytes left rather than as off+8+size, which
		// a corrupt size near MaxInt64 would overflow.
		if size < 0 || size > fi.Size()-off-8 {
			return nil, fmt.Errorf("must: shard %d: blob size %d exceeds file", j, size)
		}
		offsets[j] = off + 8
		sizes[j] = size
		off += 8 + size
	}
	shards := make([]*Engine, n)
	err = shard.Do(n, 0, func(j int) error {
		e, err := ReadEngine(io.NewSectionReader(f, offsets[j], sizes[j]))
		if err != nil {
			return fmt.Errorf("must: shard %d: %w", j, err)
		}
		shards[j] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assembleSharded(shards, rr)
}

// LoadService reads a snapshot written by WriteSnapshot from the file at
// path, sniffing the container magic: MUSTSH1 loads a ShardedEngine
// (shards in parallel), anything else is read as a MUSTEG2 Engine. This is
// what serving layers use to restore whichever engine kind produced the
// snapshot.
func LoadService(path string) (Service, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var got [8]byte
	_, rerr := io.ReadFull(f, got[:])
	_ = f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("must: reading snapshot magic: %w", rerr)
	}
	if got == shMagic {
		return LoadShardedEngine(path)
	}
	return LoadEngine(path)
}
