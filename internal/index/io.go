package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"must/internal/graph"
	"must/internal/vec"
)

// Binary index format (MUSTIX2), little-endian — the graph topology as
// two bulk CSR blocks:
//
//	magic "MUSTIX2\n"
//	pipelineLen uint32, pipeline bytes
//	numWeights uint32, weights float32...
//	numVertices uint32, seed uint32
//	offsets uint32 × (numVertices+1)   (non-decreasing; offsets[0] = 0)
//	edges   uint32 × offsets[numVertices]
//
// The two arrays are exactly the in-memory CSR representation, so a load
// is two bulk reads plus validation — no per-vertex framing, no
// per-value decode calls.
//
// Object vectors are not stored — the index references the shared corpus
// store, which has its own serialization (the collection formats).

var ixMagic = [8]byte{'M', 'U', 'S', 'T', 'I', 'X', '2', '\n'}

// ioChunkBytes sizes the scratch buffer bulk encode/decode works through:
// big enough that the bufio round trips amortize, small enough to keep a
// corrupt header from committing unbounded memory before the stream runs
// dry.
const ioChunkBytes = 1 << 16

// writeU32Block writes vals as back-to-back little-endian uint32s through
// a reused scratch buffer — one bw.Write per chunk instead of a
// binary.Write (and its reflection dispatch) per value.
func writeU32Block(bw *bufio.Writer, scratch []byte, vals []uint32) error {
	for len(vals) > 0 {
		n := len(scratch) / 4
		if n > len(vals) {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[i*4:], vals[i])
		}
		if _, err := bw.Write(scratch[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// writeI32Block is writeU32Block for the CSR edge array.
func writeI32Block(bw *bufio.Writer, scratch []byte, vals []int32) error {
	for len(vals) > 0 {
		n := len(scratch) / 4
		if n > len(vals) {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[i*4:], uint32(vals[i]))
		}
		if _, err := bw.Write(scratch[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// readU32Block fills dst with little-endian uint32s using chunked
// io.ReadFull decodes.
func readU32Block(br *bufio.Reader, scratch []byte, dst []uint32) error {
	for len(dst) > 0 {
		n := len(scratch) / 4
		if n > len(dst) {
			n = len(dst)
		}
		if _, err := io.ReadFull(br, scratch[:n*4]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			dst[i] = binary.LittleEndian.Uint32(scratch[i*4:])
		}
		dst = dst[n:]
	}
	return nil
}

// Write serializes the index structure (graph + weights) to w in the
// MUSTIX2 format. Any incremental-insert overlay is folded into the
// written form via a non-mutating snapshot, so Write is safe alongside
// concurrent searches under the engine's read lock (writers — inserts,
// deletes, rebuilds — must still be excluded).
func (f *Fused) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(ixMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(f.Pipeline))); err != nil {
		return err
	}
	if _, err := bw.WriteString(f.Pipeline); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(f.Weights))); err != nil {
		return err
	}
	for _, x := range f.Weights {
		if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(x)); err != nil {
			return err
		}
	}
	offsets, edges := f.Graph.SnapshotCSR()
	if err := binary.Write(bw, binary.LittleEndian, uint32(f.Graph.NumVertices())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(f.Graph.Seed)); err != nil {
		return err
	}
	scratch := make([]byte, ioChunkBytes)
	if err := writeU32Block(bw, scratch, offsets); err != nil {
		return err
	}
	if err := writeI32Block(bw, scratch, edges); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadFused deserializes a MUSTIX2 index structure and attaches the
// shared corpus store (which must hold the same rows the index was built
// over). The loaded index is single-copy from the start: searches and
// incremental inserts both run against store, with no fused buffer; the
// topology lands directly in the frozen CSR core.
func ReadFused(r io.Reader, store *vec.FlatStore) (*Fused, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if got != ixMagic {
		return nil, fmt.Errorf("index: bad magic %q", got[:])
	}
	readU32 := func() (uint32, error) {
		var x uint32
		err := binary.Read(br, binary.LittleEndian, &x)
		return x, err
	}
	pLen, err := readU32()
	if err != nil {
		return nil, err
	}
	if pLen > 1<<16 {
		return nil, fmt.Errorf("index: unreasonable pipeline name length %d", pLen)
	}
	pBytes := make([]byte, pLen)
	if _, err := io.ReadFull(br, pBytes); err != nil {
		return nil, err
	}
	nw, err := readU32()
	if err != nil {
		return nil, err
	}
	if nw > 64 {
		return nil, fmt.Errorf("index: unreasonable weight count %d", nw)
	}
	weights := make(vec.Weights, nw)
	for i := range weights {
		bits, err := readU32()
		if err != nil {
			return nil, err
		}
		weights[i] = math.Float32frombits(bits)
	}
	nv, err := readU32()
	if err != nil {
		return nil, err
	}
	storeLen := 0
	if store != nil {
		storeLen = store.Len()
	}
	if int(nv) != storeLen {
		return nil, fmt.Errorf("index: graph has %d vertices, store has %d rows", nv, storeLen)
	}
	seed, err := readU32()
	if err != nil {
		return nil, err
	}
	if seed >= nv {
		return nil, fmt.Errorf("index: seed %d out of range", seed)
	}

	g, err := readTopology(br, nv, int32(seed))
	if err != nil {
		return nil, err
	}
	return &Fused{
		Graph:    g,
		Weights:  weights,
		Store:    store,
		Pipeline: string(pBytes),
	}, nil
}

// readTopology bulk-decodes the two CSR blocks, validating the offsets
// invariant and every edge endpoint before the graph is constructed. The
// edge array is grown chunk by chunk as bytes actually arrive, so a
// corrupt header claiming an absurd edge count fails with an I/O error
// after at most the real stream size, instead of committing the claimed
// allocation up front (mirroring the collection loader's bound).
func readTopology(br *bufio.Reader, nv uint32, seed int32) (*graph.Graph, error) {
	scratch := make([]byte, ioChunkBytes)
	offsets := make([]uint32, int(nv)+1)
	if err := readU32Block(br, scratch, offsets); err != nil {
		return nil, fmt.Errorf("index: reading CSR offsets: %w", err)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("index: CSR offsets start at %d, want 0", offsets[0])
	}
	for v := uint32(0); v < nv; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("index: CSR offsets decrease at vertex %d", v)
		}
		if offsets[v+1]-offsets[v] > nv {
			return nil, fmt.Errorf("index: vertex %d degree %d out of range", v, offsets[v+1]-offsets[v])
		}
	}
	numEdges := int(offsets[nv])
	capHint := numEdges
	if capHint > 1<<22 {
		capHint = 1 << 22 // grow the rest as the stream delivers it
	}
	edges := make([]int32, 0, capHint)
	for len(edges) < numEdges {
		n := len(scratch) / 4
		if rem := numEdges - len(edges); n > rem {
			n = rem
		}
		if _, err := io.ReadFull(br, scratch[:n*4]); err != nil {
			return nil, fmt.Errorf("index: reading CSR edges: %w", err)
		}
		for i := 0; i < n; i++ {
			u := binary.LittleEndian.Uint32(scratch[i*4:])
			if u >= nv {
				return nil, fmt.Errorf("index: edge target %d out of range", u)
			}
			edges = append(edges, int32(u))
		}
	}
	return graph.NewCSRParts(offsets, edges, seed), nil
}

// Save writes the index to the file at path.
func (f *Fused) Save(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Write(file); err != nil {
		_ = file.Close()
		return err
	}
	return file.Close()
}

// Load reads an index from path and attaches the shared corpus store.
func Load(path string, store *vec.FlatStore) (*Fused, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = file.Close() }()
	return ReadFused(file, store)
}
