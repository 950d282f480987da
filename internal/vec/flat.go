package vec

import "fmt"

// FlatStore packs the multi-vectors of many objects into rows of one
// contiguous arena: object i occupies a rowDim-float row, and modality m of
// that object is the sub-range [offs[m], offs[m+1]) of the row. Flat
// storage removes the two levels of pointer chasing a
// [][]float32-of-[]float32 layout costs on every distance computation and
// keeps each candidate's modalities on adjacent cache lines, which is what
// the fused FlatScanner kernel relies on for its throughput.
//
// The arena is chunked so it can grow without ever moving a stored row:
// the base block (the bulk arena — sized by the construction capacity or
// adopted whole from a v3/v4 collection file) is followed by fixed-size
// overflow chunks, each allocated at full size the moment it is needed.
// Appends therefore never reallocate previously written memory, so views
// returned by Row/Modality/Multi stay valid for the lifetime of the store —
// this is what lets one store be the single shared corpus for the
// collection, the graph build, every pooled searcher, and persistence at
// once, instead of each layer holding its own copy.
//
// A FlatStore is safe for concurrent readers. Append must not race with
// readers; callers serialize mutation externally (the Engine holds its
// write lock). Snapshot pins a length for lock-free readers that must not
// observe concurrent appends.
type FlatStore struct {
	dims   []int
	offs   []int // len(dims)+1 prefix offsets into a row
	rowDim int
	// bulk is the base arena block: bulkCap rows allocated up front (or
	// adopted from a collection file). Rows [0, min(n, bulkCap)) live here.
	bulk    []float32
	bulkCap int
	// chunks hold rows appended past the bulk capacity, chunkRows rows per
	// chunk (power of two), each chunk fully allocated on creation.
	chunks     [][]float32
	chunkRows  int
	chunkShift uint
	n          int
	// sq8 is the optional int8 scalar-quantized shadow of the arena (see
	// sq8.go); nil unless quantization is enabled.
	sq8 *SQ8Store
}

// chunkTargetFloats sizes overflow chunks at ~64 KiB of float32s: large
// enough that the per-chunk allocation amortizes over hundreds of rows,
// small enough that the committed-but-unfilled slack of the last chunk
// keeps total corpus memory within a whisker of the raw payload even for
// small collections.
const chunkTargetFloats = 1 << 14

// newFlatLayout validates dims and computes the row layout.
func newFlatLayout(dims []int) ([]int, []int, int) {
	if len(dims) == 0 {
		panic("vec: flat store needs at least one modality")
	}
	offs := make([]int, len(dims)+1)
	for i, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("vec: flat store modality %d has non-positive dim %d", i, d))
		}
		offs[i+1] = offs[i] + d
	}
	return append([]int(nil), dims...), offs, offs[len(dims)]
}

// NewFlatStore creates an empty store for objects with the given
// per-modality dimensions. capacity rows are committed up front as one
// contiguous bulk block; appends beyond it land in overflow chunks.
func NewFlatStore(dims []int, capacity int) *FlatStore {
	d, offs, rowDim := newFlatLayout(dims)
	if capacity < 0 {
		capacity = 0
	}
	s := &FlatStore{dims: d, offs: offs, rowDim: rowDim, bulkCap: capacity}
	if capacity > 0 {
		s.bulk = make([]float32, capacity*rowDim)
	}
	s.initChunkLayout()
	return s
}

// initChunkLayout picks the overflow chunk size: the smallest power-of-two
// row count whose chunk reaches ~chunkTargetFloats (at least one row).
func (s *FlatStore) initChunkLayout() {
	rows := 1
	shift := uint(0)
	for rows*s.rowDim < chunkTargetFloats && rows < 1<<16 {
		rows <<= 1
		shift++
	}
	s.chunkRows = rows
	s.chunkShift = shift
}

// FlatFromMulti packs objects into a fresh store. It returns nil for an
// empty object slice (there are no dimensions to derive a layout from).
func FlatFromMulti(objects []Multi) *FlatStore {
	if len(objects) == 0 {
		return nil
	}
	s := NewFlatStore(objects[0].Dims(), len(objects))
	for _, o := range objects {
		s.AppendMulti(o)
	}
	return s
}

// FlatStoreFromArena adopts an already packed arena — rows of the given
// per-modality dimensions laid out back-to-back — without copying. The
// v3/v4 collection loaders produce exactly this layout, so a loaded engine
// uses its arena as the shared corpus store for free; subsequent appends
// land in overflow chunks, never touching (or invalidating views into) the
// adopted block. len(arena) must be a whole number of rows.
func FlatStoreFromArena(dims []int, arena []float32) *FlatStore {
	d, offs, rowDim := newFlatLayout(dims)
	if len(arena)%rowDim != 0 {
		panic(fmt.Sprintf("vec: arena of %d floats is not a whole number of %d-float rows", len(arena), rowDim))
	}
	s := &FlatStore{
		dims:    d,
		offs:    offs,
		rowDim:  rowDim,
		bulk:    arena,
		bulkCap: len(arena) / rowDim,
		n:       len(arena) / rowDim,
	}
	s.initChunkLayout()
	return s
}

// Len returns the number of stored objects.
func (s *FlatStore) Len() int { return s.n }

// Modalities returns the number of modalities per object.
func (s *FlatStore) Modalities() int { return len(s.dims) }

// Dims returns the per-modality dimensions.
func (s *FlatStore) Dims() []int { return append([]int(nil), s.dims...) }

// Offsets returns the per-modality prefix offsets into a row
// (len(dims)+1 entries). The returned slice is shared and must not be
// mutated; it exists so row-view consumers (the fused graph space) avoid
// an allocation per accessor call.
func (s *FlatStore) Offsets() []int { return s.offs }

// RowDim returns the length of one packed row (the concatenated dim).
func (s *FlatStore) RowDim() int { return s.rowDim }

// Row returns object i's packed row (a view, not a copy). Views stay valid
// across appends for the lifetime of the store.
func (s *FlatStore) Row(i int) []float32 {
	if i < s.bulkCap {
		off := i * s.rowDim
		return s.bulk[off : off+s.rowDim : off+s.rowDim]
	}
	j := i - s.bulkCap
	c := s.chunks[j>>s.chunkShift]
	off := (j & (s.chunkRows - 1)) * s.rowDim
	return c[off : off+s.rowDim : off+s.rowDim]
}

// Modality returns modality m of object i (a view, not a copy).
func (s *FlatStore) Modality(i, m int) []float32 {
	row := s.Row(i)
	return row[s.offs[m]:s.offs[m+1]:s.offs[m+1]]
}

// DotRows scores rows of the store against one query, four per kernel
// call: out[i] = Dot(q, Row(ids[i])[off:off+len(q)]), each bit-identical
// to the single-row kernel. Whole blocks of four go through dotRows4Impl,
// the 1–3 row tail through dotImpl; this is the only place that policy
// lives (vec.DotRows over a packed arena comes here too).
func (s *FlatStore) DotRows(q []float32, off int, ids []int32, out []float32) {
	n := len(q)
	out = out[:len(ids)]
	if n == 0 {
		clear(out)
		return
	}
	at := func(id int32) *float32 { return &s.Row(int(id))[off : off+n][0] }
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = dotRows4Impl(q, at(ids[i]), at(ids[i+1]), at(ids[i+2]), at(ids[i+3]))
	}
	for ; i < len(ids); i++ {
		out[i] = dotImpl(q, s.Row(int(ids[i]))[off:off+n])
	}
}

// Multi returns object i as a Multi whose per-modality slices are views
// into the packed row, so FlatFromMulti followed by Multi round-trips
// without copying.
func (s *FlatStore) Multi(i int) Multi {
	row := s.Row(i)
	out := make(Multi, len(s.dims))
	for m := range s.dims {
		out[m] = row[s.offs[m]:s.offs[m+1]:s.offs[m+1]]
	}
	return out
}

// AppendRow reserves the next row and returns it for the caller to fill.
// The returned slice is zeroed bulk/chunk memory of length RowDim; callers
// write the packed modalities directly into it (the engine normalizes
// inserted objects straight into the arena this way, with no intermediate
// per-object allocation). Not safe to call concurrently with readers.
func (s *FlatStore) AppendRow() []float32 {
	var row []float32
	if s.n < s.bulkCap {
		off := s.n * s.rowDim
		row = s.bulk[off : off+s.rowDim : off+s.rowDim]
	} else {
		j := s.n - s.bulkCap
		ci := j >> s.chunkShift
		if ci == len(s.chunks) {
			s.chunks = append(s.chunks, make([]float32, s.chunkRows*s.rowDim))
		}
		off := (j & (s.chunkRows - 1)) * s.rowDim
		row = s.chunks[ci][off : off+s.rowDim : off+s.rowDim]
	}
	s.n++
	return row
}

// AppendMulti validates o against the store layout, packs it into a new
// row and returns the new object's index.
func (s *FlatStore) AppendMulti(o Multi) int {
	if len(o) != len(s.dims) {
		panic(fmt.Sprintf("vec: flat append with %d modalities, store has %d", len(o), len(s.dims)))
	}
	for m, v := range o {
		if len(v) != s.dims[m] {
			panic(fmt.Sprintf("vec: flat append modality %d has dim %d, store expects %d", m, len(v), s.dims[m]))
		}
	}
	row := s.AppendRow()
	for m, v := range o {
		copy(row[s.offs[m]:s.offs[m+1]], v)
	}
	return s.n - 1
}

// Snapshot returns a read-only view of the store pinned at its current
// length: the snapshot shares every stored row (zero-copy) but carries its
// own chunk table and count, so appends to the original — which only write
// memory past the pinned length and extend the original's chunk table —
// are invisible to, and race-free against, readers of the snapshot. Used
// for off-lock work (weight training) over a consistent corpus.
func (s *FlatStore) Snapshot() *FlatStore {
	snap := *s
	snap.chunks = append([][]float32(nil), s.chunks...)
	if s.sq8 != nil {
		snap.sq8 = s.sq8.snapshot()
	}
	return &snap
}

// MemoryBytes reports the bytes committed to vector storage: the bulk
// block plus every allocated overflow chunk. This is the "corpus" term of
// the per-component accounting in Stats — with the single-store
// architecture it is also the only resident copy of the vectors.
func (s *FlatStore) MemoryBytes() int64 {
	total := len(s.bulk)
	for _, c := range s.chunks {
		total += len(c)
	}
	return int64(total) * 4
}

// Runs invokes fn over the contiguous filled regions of the arena in row
// order: the filled prefix of the bulk block, then the filled prefix of
// each overflow chunk. Persistence writes the whole corpus with one pass
// over these few large runs instead of one write per object.
func (s *FlatStore) Runs(fn func(run []float32) error) error {
	remaining := s.n
	if s.bulkCap > 0 {
		rows := remaining
		if rows > s.bulkCap {
			rows = s.bulkCap
		}
		if rows > 0 {
			if err := fn(s.bulk[:rows*s.rowDim]); err != nil {
				return err
			}
		}
		remaining -= rows
	}
	for _, c := range s.chunks {
		if remaining <= 0 {
			break
		}
		rows := remaining
		if rows > s.chunkRows {
			rows = s.chunkRows
		}
		if err := fn(c[:rows*s.rowDim]); err != nil {
			return err
		}
		remaining -= rows
	}
	return nil
}

// PackQuery flattens a query multi-vector into one row in the store's
// layout. Missing (nil) modalities become zero ranges; combined with a
// zero weight they neither score nor steer routing (§VII-B).
func (s *FlatStore) PackQuery(q Multi) []float32 {
	row := make([]float32, s.rowDim)
	s.PackQueryInto(row, q)
	return row
}

// PackQueryInto is PackQuery into a caller-owned buffer of length RowDim,
// zeroing it first — the allocation-free path pooled searchers reuse
// across calls.
func (s *FlatStore) PackQueryInto(row []float32, q Multi) {
	if len(q) != len(s.dims) {
		panic(fmt.Sprintf("vec: query has %d modalities, store has %d", len(q), len(s.dims)))
	}
	if len(row) != s.rowDim {
		panic(fmt.Sprintf("vec: pack buffer has %d floats, store rows have %d", len(row), s.rowDim))
	}
	for i := range row {
		row[i] = 0
	}
	for m, v := range q {
		if v == nil {
			continue
		}
		if len(v) != s.dims[m] {
			panic(fmt.Sprintf("vec: query modality %d has dim %d, store expects %d", m, len(v), s.dims[m]))
		}
		copy(row[s.offs[m]:s.offs[m+1]], v)
	}
}

// ---------------------------------------------------------------------------
// Fused joint-similarity kernel.

// flatSeg is one active (non-zero-weight) modality range of a packed row.
type flatSeg struct {
	a, b int
	// halfC is ½·ω_i²·(‖q_i‖² + 1): the constant part of the distance-form
	// joint IP for this modality on unit-norm stored vectors, hoisted out
	// of the per-candidate loop.
	halfC float32
}

// FlatScanner evaluates the Lemma 1 joint similarity Σ ω_i²·IP_i between
// a fixed query and packed candidate rows in a single fused pass: the
// query is pre-scaled by ω_i² per modality, so each candidate costs one
// unrolled multiply-add sweep over its contiguous row — no per-modality
// slice dispatch and no weight multiplies in the inner loop.
//
// It works in the distance formulation of Eq. 8,
// IP_joint = Σω_i² − ½·Σω_i²·‖q_i−u_i‖², expanded with the stored rows'
// unit per-modality norms (engine inserts normalize; so does the paper).
// The partial distance over the modalities scanned so far only grows, so
// the partial IP is an upper bound on the joint IP that only shrinks: Scan
// implements the Lemma 4 early termination by checking that bound at
// modality boundaries only.
type FlatScanner struct {
	sq    []float32 // ω_i²-pre-scaled packed query (zero on inactive ranges)
	segs  []flatSeg
	sumW2 float32

	// Blocked-scoring state of the last Prescore (see there):
	// bounds[i*len(segs)+s] = row i's bound after segment s, and done[i] =
	// how many segments of row i are in bounds. Both are views into the
	// two scratch arrays every Prescore carves its buffers from.
	bounds []float32
	done   []int32
	ints   []int32
	floats []float32
}

// NewFlatScanner prepares a fused scanner for queries against rows laid
// out like st. Modalities at or beyond len(w), or with a zero weight, are
// skipped entirely (the t != m case of §VII-B).
func NewFlatScanner(st *FlatStore, w Weights, query Multi) *FlatScanner {
	fs := &FlatScanner{}
	fs.Reset(st, w, query)
	return fs
}

// Reset re-targets the scanner at a new query (and weights) against rows
// laid out like st, reusing the pre-scaled-query and segment buffers from
// the previous call. Pooled searchers call this once per search instead
// of NewFlatScanner, which is what keeps the steady-state search path at
// zero allocations.
func (fs *FlatScanner) Reset(st *FlatStore, w Weights, query Multi) {
	if cap(fs.sq) < st.rowDim {
		fs.sq = make([]float32, st.rowDim)
	}
	sq := fs.sq[:st.rowDim]
	fs.sq = sq
	st.PackQueryInto(sq, query)
	fs.segs = fs.segs[:0]
	fs.sumW2 = w.SumSquared()
	for m := range st.dims {
		if m >= len(w) || w[m] == 0 {
			for i := st.offs[m]; i < st.offs[m+1]; i++ {
				sq[i] = 0
			}
			continue
		}
		w2 := w[m] * w[m]
		var qq float32
		for i := st.offs[m]; i < st.offs[m+1]; i++ {
			qq += sq[i] * sq[i]
			sq[i] *= w2
		}
		fs.segs = append(fs.segs, flatSeg{a: st.offs[m], b: st.offs[m+1], halfC: 0.5 * w2 * (qq + 1)})
	}
}

// SumW2 returns Σ ω_i², the joint IP of the query with itself under unit
// norms and the upper bound Scan starts from.
func (fs *FlatScanner) SumW2() float32 { return fs.sumW2 }

// FullIP computes the exact joint IP against a packed row with no early
// termination. It accumulates per-segment in the same order as Scan, so
// the two agree bit-for-bit on the exact path. Each segment is one call
// into the installed dot kernel (AVX2/NEON where available, the pure-Go
// reference otherwise — see kernel.go).
func (fs *FlatScanner) FullIP(row []float32) float32 {
	ip := fs.sumW2
	sq := fs.sq
	for _, sg := range fs.segs {
		a := sq[sg.a:sg.b]
		b := row[sg.a:sg.b:sg.b]
		ip += dotImpl(a, b) - sg.halfC
	}
	return ip
}

// Scan evaluates the joint IP against row, checking the Lemma 4 upper
// bound after each modality segment: if the bound drops to or below
// threshold, Scan returns (bound, false) without touching the remaining
// segments and the caller may discard the candidate. Otherwise it returns
// the exact joint IP and true. The bound is checked after every segment
// including the last, so exact == true implies ip > threshold.
func (fs *FlatScanner) Scan(row []float32, threshold float32) (ip float32, exact bool) {
	ip = fs.sumW2
	sq := fs.sq
	for _, sg := range fs.segs {
		a := sq[sg.a:sg.b]
		b := row[sg.a:sg.b:sg.b]
		ip += dotImpl(a, b) - sg.halfC
		if ip <= threshold {
			return ip, false
		}
	}
	return ip, true
}

// Prescore scores a batch of rows ahead of the caller's sequential
// ScanAt/FullIPAt walk, four rows per kernel call (see dotRows4Impl) —
// the shape of one routing hop: every unseen neighbour against one query.
// Segment 0 is scored for the whole batch, since Scan always finishes it.
// Later segments are scored for every row when prune is false (the
// FullIP walk), and otherwise only for rows whose bound still beats
// threshold, the pool's worst IP before the walk: the walk's threshold
// only rises from there, so these are a superset of the rows it can take
// past that segment. Prescore makes no decision: which rows count as
// skipped or evaluated, and against which threshold, is the walk's.
func (fs *FlatScanner) Prescore(st *FlatStore, ids []int32, threshold float32, prune bool) {
	n, nseg := len(ids), len(fs.segs)
	if cap(fs.ints) < 3*n {
		fs.ints = make([]int32, 3*n)
	}
	if cap(fs.floats) < n*(nseg+1) {
		fs.floats = make([]float32, n*(nseg+1))
	}
	done, liveAt, liveIDs := fs.ints[:n], fs.ints[n:2*n], fs.ints[2*n:3*n]
	dots, bounds := fs.floats[:n], fs.floats[n:n*(nseg+1)]
	fs.done, fs.bounds = done, bounds
	if nseg == 0 {
		clear(done)
		return
	}
	// alive reports whether a row with this bound goes on to the next
	// segment; the rows that do are kept as positions in ids (liveAt) and
	// as the IDs themselves (liveIDs, what DotRows takes).
	alive := func(bound float32) bool { return !(prune && bound <= threshold) }
	sg := fs.segs[0]
	st.DotRows(fs.sq[sg.a:sg.b], sg.a, ids, dots)
	live := 0
	for i, d := range dots {
		ip := fs.sumW2
		ip += d - sg.halfC
		bounds[i*nseg] = ip
		done[i] = 1
		if alive(ip) {
			liveAt[live], liveIDs[live] = int32(i), ids[i]
			live++
		}
	}
	for s := 1; s < nseg && live > 0; s++ {
		sg = fs.segs[s]
		st.DotRows(fs.sq[sg.a:sg.b], sg.a, liveIDs[:live], dots)
		still := 0
		for j, i := range liveAt[:live] {
			at := int(i)*nseg + s
			ip := bounds[at-1]
			ip += dots[j] - sg.halfC
			bounds[at] = ip
			done[i] = int32(s + 1)
			if alive(ip) {
				liveAt[still], liveIDs[still] = i, liveIDs[j]
				still++
			}
		}
		live = still
	}
}

// ScanAt is Scan(Row(ids[i]), threshold) for row i of the last Prescore
// batch: the same Lemma 4 check after every segment, the last included.
// threshold must not be below that Prescore's (within a hop it only
// rises), so a row Prescore pruned fails its last scored bound here too.
func (fs *FlatScanner) ScanAt(i int, threshold float32) (ip float32, exact bool) {
	nseg := len(fs.segs)
	ip = fs.sumW2
	for _, ip = range fs.bounds[i*nseg : i*nseg+int(fs.done[i])] {
		if ip <= threshold {
			return ip, false
		}
	}
	// A pruned row gets here only past a NaN threshold (a pool poisoned by
	// non-finite scores, where no order means anything): it stays pruned.
	return ip, int(fs.done[i]) == nseg
}

// FullIPAt is FullIP(Row(ids[i])) for row i of the last Prescore batch,
// which must have been scored in full (prune false).
func (fs *FlatScanner) FullIPAt(i int) float32 {
	nseg := len(fs.segs)
	if int(fs.done[i]) != nseg {
		panic("vec: FullIPAt on a pruned Prescore batch")
	}
	if nseg == 0 {
		return fs.sumW2
	}
	return fs.bounds[(i+1)*nseg-1]
}

// Scan and FullIP share the exact per-segment accumulation (both call the
// same installed kernel, and every kernel honors the fixed accumulation
// schedule in kernel.go), so the early-exiting and exact search paths —
// and the AVX2/NEON/pure-Go builds — agree bit-for-bit.
