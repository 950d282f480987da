package must

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"must/internal/index"
	"must/internal/shard"
	"must/internal/vec"
)

// Collection binary format, little-endian (the collection section of an
// engine snapshot):
//
//	magic "MUSTCL4\n" (or "MUSTCL5\n", see below)
//	m uint32, dims: m × uint32
//	names: m × (len uint32, bytes)   — len 0 for unnamed modalities
//	numObjects uint64
//	vectors: numObjects × rowDim × float32, one contiguous block
//	v5 only: m × (min float32, delta float32) SQ8 scales,
//	  then numObjects × rowDim uint8 codes
//
// The writer sources the float block straight from the collection's
// shared arena-backed store — a handful of bulk writes over the arena's
// contiguous runs instead of one encode loop per object — and the loader
// reads it back into a single arena that becomes the collection's store
// verbatim. A loaded system is therefore single-copy before the first
// query: build, search, brute force, and future appends all view the
// adopted arena. The count field is 64 bits wide so the format can outgrow
// uint32 without another version bump; the writer and the loader both
// enforce maxPersistObjects, so every file that saves also loads.

// maxPersistObjects bounds the object count the persistence formats
// accept, enforced symmetrically: the writer rejects collections above it
// (nothing may be saved that cannot be loaded back) and the loader uses
// it to reject corrupt headers before allocating.
const maxPersistObjects = 1 << 28

// maxUpfront caps how many elements a decoder allocates before the stream
// has delivered them (4M: 16 MiB of float32s, 32 MiB of IDs). Larger
// blocks grow as data arrives, so a corrupt count fails with a read error
// once the stream runs dry instead of committing the claimed size up
// front.
const maxUpfront = 1 << 22

var (
	clMagicV4 = [8]byte{'M', 'U', 'S', 'T', 'C', 'L', '4', '\n'}
	// v5 = v4 plus the trailing SQ8 block. Written only when the store
	// carries a trained SQ8 shadow covering every row; collections without
	// quantization keep writing v4, so their files stay byte-identical.
	clMagicV5 = [8]byte{'M', 'U', 'S', 'T', 'C', 'L', '5', '\n'}
)

func writeString(bw *bufio.Writer, s string) error {
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := bw.WriteString(s)
	return err
}

func readString(br *bufio.Reader, maxLen uint32) (string, error) {
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("must: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// writeCollectionBody serializes c in the v4 arena-dump format, or v5
// when the collection carries a trained SQ8 shadow store (v5 appends the
// quantizer scales and code arena so a loaded engine serves quantized
// searches without retraining).
func writeCollectionBody(bw *bufio.Writer, c *collection) error {
	if c.Len() > maxPersistObjects {
		return fmt.Errorf("must: collection has %d objects, persistence caps at %d", c.Len(), maxPersistObjects)
	}
	// The SQ8 block is written only when it covers the full corpus (it
	// always does under the Engine's write-lock discipline: SyncSQ8 runs
	// before any save can observe the new rows).
	var sq8 *vec.SQ8Store
	if c.store != nil {
		if q := c.store.SQ8(); q != nil && q.Trained() && q.Len() == c.Len() {
			sq8 = q
		}
	}
	magic := clMagicV4
	if sq8 != nil {
		magic = clMagicV5
	}
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(c.dims))); err != nil {
		return err
	}
	for _, d := range c.dims {
		if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	for i := range c.dims {
		name := ""
		if i < len(c.names) {
			name = c.names[i]
		}
		if len(name) > maxModalityNameLen {
			return fmt.Errorf("must: modality %d name exceeds %d bytes, would be unloadable", i, maxModalityNameLen)
		}
		if err := writeString(bw, name); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(c.Len())); err != nil {
		return err
	}
	if c.store == nil {
		return nil
	}
	// The vector block is sourced straight from the store's arena: a few
	// large contiguous runs (the bulk block plus any overflow chunks),
	// each encoded through one bounded scratch buffer. No per-object
	// dispatch — collection save time is dominated by this loop.
	scratch := make([]byte, 0, 1<<16)
	if err := c.store.Runs(func(run []float32) error {
		for len(run) > 0 {
			chunk := run
			if len(chunk) > (1<<16)/4 {
				chunk = chunk[:(1<<16)/4]
			}
			run = run[len(chunk):]
			scratch = scratch[:0]
			for _, x := range chunk {
				scratch = binary.LittleEndian.AppendUint32(scratch, math.Float32bits(x))
			}
			if _, err := bw.Write(scratch); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if sq8 == nil {
		return nil
	}
	// v5 SQ8 block: per-modality scales, then the code arena in the same
	// few-large-runs fashion as the float block (codes are raw bytes, so
	// no scratch re-encoding is needed).
	mins, deltas := sq8.Scales()
	for m := range c.dims {
		if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(mins[m])); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(deltas[m])); err != nil {
			return err
		}
	}
	return sq8.Runs(func(run []uint8) error {
		_, err := bw.Write(run)
		return err
	})
}

// readFloatBlock fills dst with little-endian float32s from br through
// the caller-provided scratch buffer (no full-size intermediate byte
// slice; the scratch is allocated once per load, not per call).
func readFloatBlock(br *bufio.Reader, dst []float32, scratch []byte) error {
	for len(dst) > 0 {
		want := len(dst) * 4
		if want > len(scratch) {
			want = len(scratch)
		}
		if _, err := io.ReadFull(br, scratch[:want]); err != nil {
			return err
		}
		for i := 0; i < want; i += 4 {
			dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(scratch[i:]))
			dst = dst[1:]
		}
	}
	return nil
}

// readCollectionBody deserializes a v4 or v5 collection into a single
// arena-backed store.
func readCollectionBody(br *bufio.Reader) (*collection, error) {
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("must: reading collection magic: %w", err)
	}
	if got != clMagicV4 && got != clMagicV5 {
		return nil, fmt.Errorf("must: bad collection magic %q", got[:])
	}
	var m uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, err
	}
	if m == 0 || m > 64 {
		return nil, fmt.Errorf("must: unreasonable modality count %d", m)
	}
	dims := make([]int, m)
	total := 0
	for i := range dims {
		var d uint32
		if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
			return nil, err
		}
		if d == 0 || d > 1<<16 {
			return nil, fmt.Errorf("must: unreasonable dim %d", d)
		}
		dims[i] = int(d)
		total += int(d)
	}
	names := make([]string, m)
	any := false
	for i := range names {
		s, err := readString(br, maxModalityNameLen)
		if err != nil {
			return nil, fmt.Errorf("must: reading modality %d name: %w", i, err)
		}
		names[i] = s
		if s != "" {
			any = true
		}
	}
	if !any {
		names = nil
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxPersistObjects {
		return nil, fmt.Errorf("must: unreasonable object count %d", n)
	}
	c := &collection{dims: dims, names: names}
	// The whole vector block lands in one flat arena that becomes the
	// collection's store verbatim, grown as data actually arrives.
	totalFloats := int(n) * total
	capHint := min(totalFloats, maxUpfront)
	arena := make([]float32, 0, capHint)
	scratch := make([]byte, 1<<16)
	for len(arena) < totalFloats {
		chunk := totalFloats - len(arena)
		if chunk > 1<<20 {
			chunk = 1 << 20
		}
		if cap(arena)-len(arena) < chunk {
			newCap := 2 * cap(arena)
			if newCap > totalFloats {
				newCap = totalFloats
			}
			grown := make([]float32, len(arena), newCap)
			copy(grown, arena)
			arena = grown
		}
		start := len(arena)
		arena = arena[:start+chunk]
		if err := readFloatBlock(br, arena[start:], scratch); err != nil {
			return nil, fmt.Errorf("must: reading flat vector block: %w", err)
		}
	}
	c.store = vec.FlatStoreFromArena(dims, arena)
	if got == clMagicV5 {
		// SQ8 block: scales, then one code byte per stored float. The code
		// arena is adopted by the shadow store verbatim, mirroring the float
		// arena above.
		mins := make([]float32, m)
		deltas := make([]float32, m)
		for i := uint32(0); i < m; i++ {
			var mb, db uint32
			if err := binary.Read(br, binary.LittleEndian, &mb); err != nil {
				return nil, fmt.Errorf("must: reading sq8 scale %d: %w", i, err)
			}
			if err := binary.Read(br, binary.LittleEndian, &db); err != nil {
				return nil, fmt.Errorf("must: reading sq8 scale %d: %w", i, err)
			}
			mins[i] = math.Float32frombits(mb)
			deltas[i] = math.Float32frombits(db)
		}
		codes := make([]uint8, 0, capHint)
		for len(codes) < totalFloats {
			chunk := totalFloats - len(codes)
			if chunk > 1<<20 {
				chunk = 1 << 20
			}
			start := len(codes)
			codes = append(codes, make([]uint8, chunk)...)
			if _, err := io.ReadFull(br, codes[start:]); err != nil {
				return nil, fmt.Errorf("must: reading sq8 code block: %w", err)
			}
		}
		c.store.AdoptSQ8(vec.SQ8FromParts(c.store.Offsets(), c.store.RowDim(), mins, deltas, codes))
	}
	return c, nil
}

// Engine binary format, little-endian. A one-shard engine is one MUSTEG2
// blob; an S-shard engine is a MUSTSH1 container of S of them.
//
//	magic "MUSTEG2\n"
//	schema: m uint32, m × (nameLen uint32, name bytes, dim uint32)
//	weights: m × float32
//	build: gamma uint32 (0..1024), reserved 2 × uint32 (0), seed int64
//	nextID uint64 (shard-local)
//	epoch uint64 (the mutation epoch at snapshot time — WAL replay
//	  applies only records logged after it)
//	ids: n uint32, n × uint64 (shard-local: engine ID div S)
//	tombstones: n × uint8
//	collection body (v4 or v5 format, see above)
//	built uint8; if 1: index body (internal/index MUSTIX2 format)
var egMagic = [8]byte{'M', 'U', 'S', 'T', 'E', 'G', '2', '\n'}

// MUSTSH1 container: a small header followed by one MUSTEG2 blob per
// shard, each preceded by its byte length.
//
//	magic   [8]byte  "MUSTSH1\n"
//	shards  uint32   shard count S (1..shard.MaxShards)
//	rr      uint64   round-robin insert cursor
//	S × { size uint64; blob [size]byte }   engine blobs, shard order
//
// The explicit per-blob length lets the reader compute every section's
// offset up front and load the shards in parallel, each from its own
// bounded section (a blob reader buffers ahead, so an unbounded one would
// read into the next shard).
var shMagic = [8]byte{'M', 'U', 'S', 'T', 'S', 'H', '1', '\n'}

// shHeaderLen is the byte length of the MUSTSH1 header.
const shHeaderLen = len(shMagic) + 4 + 8

// SaveTo serializes the whole engine — schema, weights, build options,
// objects, stable IDs, tombstones, and the built graphs — to w: MUSTEG2
// for one shard, MUSTSH1 for more. The engine may keep serving while it
// saves: each shard snapshots under its own read lock, with one shard's
// blob buffered in memory at a time (≈1/S of the corpus). For a
// point-in-time snapshot across shards, quiesce writes first (the mustd
// drain path does).
func (e *Engine) SaveTo(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.parts) == 1 {
		return e.parts[0].saveTo(w)
	}
	hdr := make([]byte, 0, shHeaderLen)
	hdr = append(hdr, shMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(e.parts)))
	hdr = binary.LittleEndian.AppendUint64(hdr, e.rr.Load())
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var buf bytes.Buffer
	for j, p := range e.parts {
		buf.Reset()
		if err := p.saveTo(&buf); err != nil {
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

// saveTo writes the part as one MUSTEG2 blob, under its read lock.
func (p *part) saveTo(w io.Writer) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.c.Len() > maxPersistObjects {
		return fmt.Errorf("must: engine has %d objects, persistence caps at %d", p.c.Len(), maxPersistObjects)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(egMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(p.schema))); err != nil {
		return err
	}
	for _, m := range p.schema {
		if err := writeString(bw, m.Name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(m.Dim)); err != nil {
			return err
		}
	}
	for _, x := range p.weights {
		if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(x)); err != nil {
			return err
		}
	}
	bo := p.build
	if err := binary.Write(bw, binary.LittleEndian, uint32(bo.Gamma)); err != nil {
		return err
	}
	// Two reserved words: written as 0, and a load refuses any other value.
	if err := binary.Write(bw, binary.LittleEndian, [2]uint32{}); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, bo.Seed); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(p.nextID)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, p.epoch); err != nil {
		return err
	}
	n := p.c.Len()
	if err := binary.Write(bw, binary.LittleEndian, uint32(n)); err != nil {
		return err
	}
	for _, id := range p.ids {
		if err := binary.Write(bw, binary.LittleEndian, uint64(id/int64(p.n))); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		var b byte
		if i < len(p.dead) && p.dead[i] {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	if err := writeCollectionBody(bw, p.c); err != nil {
		return err
	}
	built := byte(0)
	if p.f != nil {
		built = 1
	}
	if err := bw.WriteByte(built); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if p.f != nil {
		// The index section is last, so its internal buffering cannot
		// over-read anything that follows on load.
		return p.f.Write(w)
	}
	return nil
}

// ReadEngine deserializes an engine written with SaveTo from the size
// bytes of r, restoring schema, weights, build options, objects, stable
// IDs, tombstones, and the built graphs. It reads either format: a
// MUSTEG2 blob is a one-shard engine, and a MUSTSH1 container's shards
// load in parallel, each from its own section of r.
func ReadEngine(r io.ReaderAt, size int64) (*Engine, error) {
	sr := io.NewSectionReader(r, 0, size)
	var hdr [shHeaderLen]byte
	n, err := sr.ReadAt(hdr[:], 0)
	if n < len(shMagic) || [8]byte(hdr[:8]) != shMagic {
		if n < len(shMagic) {
			return nil, fmt.Errorf("must: reading engine magic: %w", err)
		}
		p, err := readPart(sr, 0, 1)
		if err != nil {
			return nil, err
		}
		return assemble(p.schema, []*part{p}, 0), nil
	}
	if n < shHeaderLen {
		return nil, fmt.Errorf("must: reading sharded header: %w", err)
	}
	shards := int(binary.LittleEndian.Uint32(hdr[8:]))
	if err := shard.Validate(shards); err != nil {
		return nil, fmt.Errorf("must: %w", err)
	}
	rr := binary.LittleEndian.Uint64(hdr[12:])
	// Walk the size prefixes to compute each shard's section.
	offsets := make([]int64, shards)
	sizes := make([]int64, shards)
	off := int64(shHeaderLen)
	var szBuf [8]byte
	for j := range shards {
		if _, err := sr.ReadAt(szBuf[:], off); err != nil {
			return nil, fmt.Errorf("must: shard %d: reading blob size: %w", j, err)
		}
		blob := int64(binary.LittleEndian.Uint64(szBuf[:]))
		// Compared against the bytes left rather than as off+8+blob, which
		// a corrupt size near MaxInt64 would overflow.
		if blob < 0 || blob > size-off-8 {
			return nil, fmt.Errorf("must: shard %d: blob size %d exceeds file", j, blob)
		}
		offsets[j], sizes[j] = off+8, blob
		off += 8 + blob
	}
	parts := make([]*part, shards)
	if err := shard.Do(shards, 0, func(j int) error {
		p, err := readPart(io.NewSectionReader(r, offsets[j], sizes[j]), j, shards)
		if err != nil {
			return fmt.Errorf("must: shard %d: %w", j, err)
		}
		parts[j] = p
		return nil
	}); err != nil {
		return nil, err
	}
	sc := parts[0].schema
	for j, p := range parts {
		if !slices.Equal(p.schema, sc) {
			return nil, fmt.Errorf("must: shard %d schema %v disagrees with shard 0 (%v)", j, p.schema, sc)
		}
	}
	return assemble(sc, parts, rr), nil
}

// readPart reads one MUSTEG2 blob as shard j of an n-shard engine,
// turning its shard-local IDs back into engine IDs.
func readPart(r io.Reader, j, n int) (*part, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("must: reading engine magic: %w", err)
	}
	if got != egMagic {
		return nil, fmt.Errorf("must: bad engine magic %q", got[:])
	}
	readU32 := func() (uint32, error) {
		var x uint32
		err := binary.Read(br, binary.LittleEndian, &x)
		return x, err
	}
	m, err := readU32()
	if err != nil {
		return nil, err
	}
	if m == 0 || m > 64 {
		return nil, fmt.Errorf("must: unreasonable modality count %d", m)
	}
	schema := make(Schema, m)
	for i := range schema {
		name, err := readString(br, maxModalityNameLen)
		if err != nil {
			return nil, err
		}
		d, err := readU32()
		if err != nil {
			return nil, err
		}
		schema[i] = Modality{Name: name, Dim: int(d)}
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	w := make(Weights, m)
	for i := range w {
		bits, err := readU32()
		if err != nil {
			return nil, err
		}
		w[i] = math.Float32frombits(bits)
	}
	gamma, err := readU32()
	if err != nil {
		return nil, err
	}
	var reserved [2]uint32
	if err := binary.Read(br, binary.LittleEndian, &reserved); err != nil {
		return nil, err
	}
	if reserved != [2]uint32{} {
		return nil, fmt.Errorf("must: reserved build words %v, want 0", reserved)
	}
	bo := BuildOptions{Gamma: int(gamma)}
	if err := bo.validate(); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &bo.Seed); err != nil {
		return nil, err
	}
	var nextID uint64
	if err := binary.Read(br, binary.LittleEndian, &nextID); err != nil {
		return nil, err
	}
	var epoch uint64
	if err := binary.Read(br, binary.LittleEndian, &epoch); err != nil {
		return nil, err
	}
	count, err := readU32()
	if err != nil {
		return nil, err
	}
	if count > maxPersistObjects {
		return nil, fmt.Errorf("must: unreasonable object count %d", count)
	}
	// ids and tombstones grow as bytes arrive (see maxUpfront). A local ID
	// must map to an engine ID that fits in an int64 and maps back.
	maxLocal := uint64((math.MaxInt64 - int64(j)) / int64(n))
	ids := make([]int64, 0, min(int(count), maxUpfront))
	for len(ids) < int(count) {
		var x uint64
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return nil, err
		}
		if x > maxLocal {
			return nil, fmt.Errorf("must: object id %d out of range", x)
		}
		ids = append(ids, shard.Global(j, int64(x), n))
	}
	dead := make([]bool, 0, min(int(count), maxUpfront))
	anyDead := false
	for len(dead) < int(count) {
		b, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		dead = append(dead, b != 0)
		anyDead = anyDead || b != 0
	}
	c, err := readCollectionBody(br)
	if err != nil {
		return nil, err
	}
	if len(c.dims) != int(m) || c.Len() != int(count) {
		return nil, fmt.Errorf("must: engine file inconsistent: schema %d/%d modalities, %d/%d objects",
			len(c.dims), m, c.Len(), count)
	}
	for i, d := range c.dims {
		if d != schema[i].Dim {
			return nil, fmt.Errorf("must: engine file inconsistent: modality %q dim %d in schema, %d in collection",
				schema[i].Name, schema[i].Dim, d)
		}
	}
	p := newPart(schema, w, bo)
	p.c.store = c.store
	if c.store != nil && c.store.SQ8() != nil {
		// A v5 collection body means the engine was serving quantized
		// searches when saved; resume doing so (default re-rank depth).
		p.quantize = true
	}
	p.nextID = int64(nextID)
	p.epoch = epoch
	p.ids = ids
	for slot, id := range ids {
		p.lookup[id] = slot
	}
	built, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if built != 0 {
		// The loaded collection's arena-backed store is the corpus, full
		// stop: the index attaches it directly and every searcher scores
		// against it.
		f, err := index.ReadFused(br, p.c.store)
		if err != nil {
			return nil, err
		}
		p.f = f
		if anyDead {
			p.dead = dead
			for _, d := range dead {
				if d {
					p.deadCount++
				}
			}
		}
		p.resetSearchersLocked()
	}
	return p, nil
}

// LoadEngine reads an engine of any shard count from the file at path.
func LoadEngine(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadEngine(f, fi.Size())
}

// LoadService is LoadEngine returned as a Service — what serving layers
// use to restore a snapshot written by WriteSnapshot.
func LoadService(path string) (Service, error) {
	e, err := LoadEngine(path)
	if err != nil {
		// A nil *Engine in a Service would be a non-nil interface.
		return nil, err
	}
	return e, nil
}
