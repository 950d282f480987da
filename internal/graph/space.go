// Package graph implements the proximity-graph substrate of the MUST
// reproduction: the component-based index-construction pipeline of
// Algorithm 1 (§VII-A) and the comparison graph algorithms of §VIII-G
// (KGraph, NSG, NSSG, HNSW, Vamana, HCNNG), all operating on a common
// vector Space so they can be built over fused concatenated vectors (MUST)
// or single-modality vectors (MR).
package graph

import (
	"fmt"

	"must/internal/vec"
)

// Space is the set of vectors a graph is built over. For the fused index
// the vectors are weighted concatenations [ω_0·ϕ_0(o_0), ...] (§VI); for a
// per-modality index they are that modality's vectors. Similarity is the
// inner product.
//
// A fused Space is a *view* over a shared vec.FlatStore — the single
// corpus copy the whole system scores against — plus the modality weights.
// During index construction the weighted rows are materialized into one
// contiguous fused buffer (the IP-heavy build loops walk sequential
// memory), and Release drops that buffer once the graph is built: the
// steady-state index keeps only the shared store, and IP/IPTo fall back to
// computing the weighted similarity per modality directly from the raw
// rows — slightly more arithmetic per call, paid only by the rare
// incremental-insert path.
//
// Spaces created from raw vectors (NewSpace) own their buffer outright;
// Release is a no-op for them.
//
// All vectors in a Space must have the same self-inner-product (true for
// weighted concatenations of unit vectors, where IP(ô,ô) = Σω_i²); several
// components rely on this to convert between IPs, distances and angles.
type Space struct {
	// st and w back a fused view; st is nil for raw self-contained spaces.
	st   *vec.FlatStore
	w    vec.Weights
	w2   []float32 // ω_m², cached for the lazy per-modality path
	offs []int     // store row offsets, shared with st

	// fused holds the materialized weighted rows; nil after Release on a
	// store-backed space. Raw spaces keep their data here permanently.
	fused []float32
	// fusedRows is how many rows fused covers. Rows appended to the
	// backing store after materialization are not in the buffer; the
	// similarity fast paths check against fusedRows and fall back to the
	// lazy store path for anything beyond it, so a store append can never
	// index past the buffer.
	fusedRows int
	dim       int
	n         int // raw spaces only; store-backed spaces track st.Len()
	selfIP    float32
}

// NewSpace packs the given raw vectors into a fresh self-contained space.
// It panics if vectors is empty or dimensions are inconsistent, which
// would indicate a bug in the caller.
func NewSpace(vectors [][]float32) *Space {
	if len(vectors) == 0 {
		panic("graph: empty space")
	}
	d := len(vectors[0])
	for i, v := range vectors {
		if len(v) != d {
			panic(fmt.Sprintf("graph: vector %d has dim %d, want %d", i, len(v), d))
		}
	}
	s := &Space{fused: make([]float32, 0, len(vectors)*d), dim: d, n: len(vectors), fusedRows: len(vectors)}
	for _, v := range vectors {
		s.fused = append(s.fused, v...)
	}
	s.selfIP = vec.Dot(s.Vector(0), s.Vector(0))
	return s
}

// NewFusedSpaceFromStore builds the fused space as a view over the shared
// flat store, materializing the weighted concatenation of every row into
// one flat buffer by GOMAXPROCS workers (each row is owned by exactly one
// worker, so the pack is deterministic). Call Release after construction
// to drop the materialized buffer and keep only the store view.
func NewFusedSpaceFromStore(st *vec.FlatStore, w vec.Weights) *Space {
	s := newStoreSpace(st, w)
	n := st.Len()
	if n == 0 {
		panic("graph: empty space")
	}
	s.fused = make([]float32, n*s.dim)
	s.fusedRows = n
	parallelVertices(n, func(i int) {
		s.packRow(i, s.fused[i*s.dim:(i+1)*s.dim])
	})
	s.selfIP = vec.Dot(s.Vector(0), s.Vector(0))
	return s
}

// StoreView builds a fused space over the shared store with no
// materialized buffer at all: every IP is computed from the raw rows and
// weights on the fly. This is what a deserialized index attaches for
// incremental inserts — the corpus stays single-copy from the first
// operation.
func StoreView(st *vec.FlatStore, w vec.Weights) *Space {
	s := newStoreSpace(st, w)
	if st.Len() > 0 {
		row := make([]float32, s.dim)
		s.packRow(0, row)
		s.selfIP = vec.Dot(row, row)
	}
	return s
}

func newStoreSpace(st *vec.FlatStore, w vec.Weights) *Space {
	if st == nil {
		panic("graph: nil store")
	}
	w2 := make([]float32, st.Modalities())
	for m := range w2 {
		if m < len(w) {
			w2[m] = w[m] * w[m]
		}
	}
	return &Space{
		st:   st,
		w:    w.Clone(),
		w2:   w2,
		offs: st.Offsets(),
		dim:  st.RowDim(),
	}
}

// packRow writes the weighted concatenation of store row i into dst.
func (s *Space) packRow(i int, dst []float32) {
	row := s.st.Row(i)
	for m := range s.w2 {
		wi := float32(0)
		if m < len(s.w) {
			wi = s.w[m]
		}
		for d := s.offs[m]; d < s.offs[m+1]; d++ {
			dst[d] = wi * row[d]
		}
	}
}

// Release drops the materialized fused buffer of a store-backed space,
// leaving the lazy view in place. The transient fused block exists only
// between NewFusedSpaceFromStore and Release — bracketing the graph build
// — so a built index holds the corpus once, not twice. No-op for raw
// spaces (they have no backing store to fall back to).
func (s *Space) Release() {
	if s.st != nil {
		s.fused = nil
		s.fusedRows = 0
	}
}

// FusedBytes reports the bytes held by the materialized fused buffer
// (0 after Release). Raw spaces report their owned buffer.
func (s *Space) FusedBytes() int64 { return int64(len(s.fused)) * 4 }

// Len returns the number of vectors. A store-backed space tracks the
// store, so rows appended to the shared store become visible here — the
// incremental-insert path relies on this.
func (s *Space) Len() int {
	if s.st != nil {
		return s.st.Len()
	}
	return s.n
}

// Dim returns the vector dimension.
func (s *Space) Dim() int { return s.dim }

// IP returns the inner product between stored vectors i and j.
func (s *Space) IP(i, j int32) float32 {
	if int(i) < s.fusedRows && int(j) < s.fusedRows {
		a := int(i) * s.dim
		b := int(j) * s.dim
		return vec.Dot(s.fused[a:a+s.dim], s.fused[b:b+s.dim])
	}
	ri, rj := s.st.Row(int(i)), s.st.Row(int(j))
	var sum float32
	for m, w2 := range s.w2 {
		if w2 == 0 {
			continue
		}
		a, b := s.offs[m], s.offs[m+1]
		sum += w2 * vec.Dot(ri[a:b], rj[a:b])
	}
	return sum
}

// IPTo returns the inner product between stored vector i and an external
// query vector q of the space's dimension (a weighted concatenation, e.g.
// from Vector or vec.WeightedConcat).
func (s *Space) IPTo(i int32, q []float32) float32 {
	if int(i) < s.fusedRows {
		a := int(i) * s.dim
		return vec.Dot(s.fused[a:a+s.dim], q)
	}
	ri := s.st.Row(int(i))
	var sum float32
	for m := range s.w2 {
		if s.w2[m] == 0 {
			continue
		}
		a, b := s.offs[m], s.offs[m+1]
		// q already carries one factor of ω_m; the stored row carries none.
		sum += s.w[m] * vec.Dot(ri[a:b], q[a:b])
	}
	return sum
}

// IPs is IP(v, ids[i]) for every i, written to out[:len(ids)] — one row
// against many, which is the shape of every hot build loop (NNDescent
// joins, sortByIP, MRNG occlusion). Scoring a whole list per call lets
// the kernel take four rows at a time against one load of row v
// (vec.DotRows); each value is bit-identical to the per-pair IP.
func (s *Space) IPs(v int32, ids []int32, out []float32) {
	if s.fusedRows > 0 {
		if int(v) < s.fusedRows && s.allFused(ids) {
			a := int(v) * s.dim
			vec.DotRows(s.fused[a:a+s.dim], s.fused, s.dim, ids, out)
			return
		}
		// A store row appended since materialization: decide per pair.
		for i, u := range ids {
			out[i] = s.IP(v, u)
		}
		return
	}
	s.lazyIPs(s.st.Row(int(v)), s.w2, ids, out)
}

// IPsTo is IPTo(ids[i], q) for every i, written to out[:len(ids)]: the
// routing beam searches score a hop's unvisited neighbours through it.
func (s *Space) IPsTo(q []float32, ids []int32, out []float32) {
	if s.fusedRows > 0 {
		if s.allFused(ids) {
			vec.DotRows(q, s.fused, s.dim, ids, out)
			return
		}
		for i, u := range ids {
			out[i] = s.IPTo(u, q)
		}
		return
	}
	// q already carries one factor of ω_m; the stored rows carry none.
	s.lazyIPs(q, s.w, ids, out)
}

func (s *Space) allFused(ids []int32) bool {
	for _, u := range ids {
		if int(u) >= s.fusedRows {
			return false
		}
	}
	return true
}

// lazyIPs is the per-modality store path of IPs and IPsTo: out[i] =
// Σ_m scale[m]·Dot(q_m, row(ids[i])_m) over the modalities with a
// non-zero weight, summed in modality order as IP and IPTo sum it. The
// per-modality dots of up to 64 rows at a time (a neighbour list or two)
// land in a stack buffer, so there is nothing to allocate or pool.
func (s *Space) lazyIPs(q []float32, scale []float32, ids []int32, out []float32) {
	out = out[:len(ids)]
	clear(out)
	var dots [64]float32
	for len(ids) > 0 {
		k := min(len(ids), len(dots))
		for m, w2 := range s.w2 {
			if w2 == 0 {
				continue
			}
			a, b := s.offs[m], s.offs[m+1]
			s.st.DotRows(q[a:b], a, ids[:k], dots[:])
			for j, d := range dots[:k] {
				out[j] += scale[m] * d
			}
		}
		ids, out = ids[k:], out[k:]
	}
}

// Vector returns stored vector i as a weighted concatenation. While the
// fused buffer is materialized this is a zero-copy view; after Release it
// allocates and packs the row on demand (acceptable on the rare
// incremental-insert path, not in build loops).
func (s *Space) Vector(i int32) []float32 {
	if int(i) < s.fusedRows {
		a := int(i) * s.dim
		return s.fused[a : a+s.dim : a+s.dim]
	}
	out := make([]float32, s.dim)
	s.packRow(int(i), out)
	return out
}

// SelfIP returns IP(v, v), identical for every vector in the space.
func (s *Space) SelfIP() float32 { return s.selfIP }

// Centroid returns the (unnormalized) mean of all vectors, used by the
// seed-preprocessing component (④). The accumulation is sequential so the
// result — and everything seeded from it — is independent of worker count.
func (s *Space) Centroid() []float32 {
	c := make([]float32, s.dim)
	n := s.Len()
	var scratch []float32
	for i := 0; i < n; i++ {
		var row []float32
		if i < s.fusedRows {
			row = s.fused[i*s.dim : (i+1)*s.dim]
		} else {
			if scratch == nil {
				scratch = make([]float32, s.dim)
			}
			s.packRow(i, scratch)
			row = scratch
		}
		for j, x := range row {
			c[j] += x
		}
	}
	inv := 1 / float32(n)
	for j := range c {
		c[j] *= inv
	}
	return c
}

// Medoid returns the index of the vector with the highest inner product to
// the centroid — the fixed seed of component ④ (Algorithm 1, line 18).
// The n inner products are computed in parallel (each worker writes only
// its own entries); the argmax reduction is sequential, so the result is
// deterministic for any worker count.
func (s *Space) Medoid() int32 {
	c := s.Centroid()
	n := s.Len()
	ips := make([]float32, n)
	parallelVertices(n, func(i int) {
		ips[i] = s.IPTo(int32(i), c)
	})
	best := int32(0)
	bestIP := ips[0]
	for i := 1; i < n; i++ {
		if ips[i] > bestIP {
			bestIP = ips[i]
			best = int32(i)
		}
	}
	return best
}
