package must

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"must/internal/index"
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

// Engine binary format, little-endian:
//
//	magic "MUSTEG2\n"
//	schema: m uint32, m × (nameLen uint32, name bytes, dim uint32)
//	weights: m × float32
//	build: gamma uint32, iterations uint32, algorithm uint32, seed int64
//	nextID uint64
//	epoch uint64 (the mutation epoch at snapshot time — WAL replay
//	  applies only records logged after it)
//	ids: n uint32, n × uint64
//	tombstones: n × uint8
//	collection body (v4 or v5 format, see above)
//	built uint8; if 1: index body (internal/index MUSTIX2 format)
var egMagic = [8]byte{'M', 'U', 'S', 'T', 'E', 'G', '2', '\n'}

// SaveTo serializes the whole engine — schema, weights, build options,
// objects, stable IDs, tombstones, and the built graph — to w. The engine
// may keep serving while it saves (a consistent snapshot is taken under
// the read lock).
func (e *Engine) SaveTo(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.c.Len() > maxPersistObjects {
		return fmt.Errorf("must: engine has %d objects, persistence caps at %d", e.c.Len(), maxPersistObjects)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(egMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(e.schema))); err != nil {
		return err
	}
	for _, m := range e.schema {
		if err := writeString(bw, m.Name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(m.Dim)); err != nil {
			return err
		}
	}
	for _, x := range e.weights {
		if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(x)); err != nil {
			return err
		}
	}
	bo := e.build
	if err := binary.Write(bw, binary.LittleEndian, uint32(bo.Gamma)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(bo.Iterations)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(bo.Algorithm)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, bo.Seed); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(e.nextID)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, e.epoch); err != nil {
		return err
	}
	n := e.c.Len()
	if err := binary.Write(bw, binary.LittleEndian, uint32(n)); err != nil {
		return err
	}
	for _, id := range e.ids {
		if err := binary.Write(bw, binary.LittleEndian, uint64(id)); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		var b byte
		if i < len(e.dead) && e.dead[i] {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	if err := writeCollectionBody(bw, e.c); err != nil {
		return err
	}
	built := byte(0)
	if e.f != nil {
		built = 1
	}
	if err := bw.WriteByte(built); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if e.f != nil {
		// The index section is last, so its internal buffering cannot
		// over-read anything that follows on load.
		return e.f.Write(w)
	}
	return nil
}

// ReadEngine deserializes an engine written with SaveTo, restoring
// schema, weights, build options, objects, stable IDs, tombstones, and
// the built graph.
func ReadEngine(r io.Reader) (*Engine, error) {
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
	w := make(Weights, m)
	for i := range w {
		bits, err := readU32()
		if err != nil {
			return nil, err
		}
		w[i] = math.Float32frombits(bits)
	}
	var bo BuildOptions
	gamma, err := readU32()
	if err != nil {
		return nil, err
	}
	iters, err := readU32()
	if err != nil {
		return nil, err
	}
	algo, err := readU32()
	if err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &bo.Seed); err != nil {
		return nil, err
	}
	bo.Gamma, bo.Iterations, bo.Algorithm = int(gamma), int(iters), GraphAlgorithm(algo)
	var nextID uint64
	if err := binary.Read(br, binary.LittleEndian, &nextID); err != nil {
		return nil, err
	}
	var epoch uint64
	if err := binary.Read(br, binary.LittleEndian, &epoch); err != nil {
		return nil, err
	}
	n, err := readU32()
	if err != nil {
		return nil, err
	}
	if n > maxPersistObjects {
		return nil, fmt.Errorf("must: unreasonable object count %d", n)
	}
	// ids and tombstones grow as bytes arrive (see maxUpfront).
	ids := make([]int64, 0, min(int(n), maxUpfront))
	for len(ids) < int(n) {
		var x uint64
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return nil, err
		}
		ids = append(ids, int64(x))
	}
	dead := make([]bool, 0, min(int(n), maxUpfront))
	anyDead := false
	for len(dead) < int(n) {
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
	if len(c.dims) != int(m) || c.Len() != int(n) {
		return nil, fmt.Errorf("must: engine file inconsistent: schema %d/%d modalities, %d/%d objects",
			len(c.dims), m, c.Len(), n)
	}
	for i, d := range c.dims {
		if d != schema[i].Dim {
			return nil, fmt.Errorf("must: engine file inconsistent: modality %q dim %d in schema, %d in collection",
				schema[i].Name, schema[i].Dim, d)
		}
	}
	e, err := NewEngine(schema, EngineOptions{Weights: w, Build: bo})
	if err != nil {
		return nil, err
	}
	e.c.store = c.store
	if c.store != nil && c.store.SQ8() != nil {
		// A v5 collection body means the engine was serving quantized
		// searches when saved; resume doing so (default re-rank depth).
		e.quantize = true
	}
	e.nextID = int64(nextID)
	e.epoch = epoch
	e.ids = ids
	for slot, id := range ids {
		e.lookup[id] = slot
	}
	built, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if built != 0 {
		// The loaded collection's arena-backed store is the corpus, full
		// stop: the index attaches it directly and every searcher scores
		// against it.
		f, err := index.ReadFused(br, e.c.store)
		if err != nil {
			return nil, err
		}
		e.f = f
		if anyDead {
			e.dead = dead
			for _, d := range dead {
				if d {
					e.deadCount++
				}
			}
		}
		e.resetSearchersLocked()
		e.updateDebtLocked()
	}
	return e, nil
}

// LoadEngine reads an engine from the file at path.
func LoadEngine(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	return ReadEngine(f)
}
