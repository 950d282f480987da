package graph

import "sort"

// Graph is a directed proximity graph over a Space, stored in CSR
// (compressed sparse row) form: the out-neighbors of sealed vertex v are
// edges[offsets[v]:offsets[v+1]], one flat int32 array for the whole
// graph. Seed is the fixed start vertex for searches (component ④).
//
// CSR is the canonical representation of a built graph — every builder
// seals its working [][]int32 adjacency through NewCSR — because it costs
// 4 bytes per edge plus 4 bytes per vertex of offsets, with O(1) slice
// headers in total, where the slice-of-slices layout paid a 24-byte
// header and a separate allocation per vertex and scattered neighbor
// lists across the heap. Routing reads neighbors as zero-copy subslices
// of one array, which the hardware prefetcher handles far better than a
// pointer chase per hop.
//
// Incremental inserts (§IX) do not mutate the frozen core. The first
// topology edit allocates a small append-overlay: overlay[v], when
// non-nil, replaces v's CSR list, and vertices appended after sealing
// live only in the overlay. Compact folds the overlay back into a fresh
// CSR core; the index layer calls it once the overlay grows past a small
// fraction of the graph, so steady state is always the flat form.
//
// A Graph is safe for concurrent readers; SetNeighbors, EnsureVertices
// and Compact must be serialized with readers by the caller (the Engine
// holds its write lock across inserts).
type Graph struct {
	// offsets has one entry per sealed vertex plus a terminator;
	// offsets[v+1]-offsets[v] is v's out-degree.
	offsets []uint32
	// edges is the concatenation of all sealed adjacency lists.
	edges []int32
	// overlay, when non-nil, has length n; a non-nil overlay[v] overrides
	// the CSR list of v (and is the only storage for vertices ≥ the
	// sealed count).
	overlay [][]int32
	// overlaid counts sealed vertices whose list has been overridden;
	// appended vertices are counted separately as n − sealed.
	overlaid int
	// n is the total vertex count: sealed vertices plus appended ones.
	n int

	// Seed is the fixed routing entry point.
	Seed int32
}

// NewCSR seals a builder's [][]int32 adjacency into the canonical CSR
// form. The input lists are copied into the flat edge array; the caller
// may discard them afterwards.
func NewCSR(adj [][]int32, seed int32) *Graph {
	total := 0
	for _, nbrs := range adj {
		total += len(nbrs)
	}
	g := &Graph{
		offsets: make([]uint32, len(adj)+1),
		edges:   make([]int32, 0, total),
		n:       len(adj),
		Seed:    seed,
	}
	for v, nbrs := range adj {
		g.edges = append(g.edges, nbrs...)
		g.offsets[v+1] = uint32(len(g.edges))
	}
	return g
}

// NewCSRParts wraps already-flat CSR arrays (e.g. decoded from an index
// file) without copying. offsets must have one entry per vertex plus a
// terminator equal to len(edges), and must be non-decreasing; the loader
// validates this before calling.
func NewCSRParts(offsets []uint32, edges []int32, seed int32) *Graph {
	return &Graph{offsets: offsets, edges: edges, n: len(offsets) - 1, Seed: seed}
}

// sealed returns the number of vertices in the frozen CSR core.
func (g *Graph) sealed() int { return len(g.offsets) - 1 }

// NumVertices returns the vertex count (sealed plus appended).
func (g *Graph) NumVertices() int { return g.n }

// Neighbors returns v's out-neighbor list as a zero-copy view: a
// subslice of the flat edge array for sealed vertices, the overlay list
// for edited or appended ones. Callers must not mutate or append to the
// returned slice.
func (g *Graph) Neighbors(v int32) []int32 {
	if g.overlay != nil {
		if nbrs := g.overlay[v]; nbrs != nil {
			return nbrs
		}
		if int(v) >= g.sealed() {
			return nil
		}
	}
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns v's out-degree.
func (g *Graph) Degree(v int32) int {
	if g.overlay != nil {
		if nbrs := g.overlay[v]; nbrs != nil || int(v) >= g.sealed() {
			return len(nbrs)
		}
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// SetNeighbors replaces v's out-neighbor list. The frozen CSR core is
// never edited in place: the new list lands in the overlay (allocated on
// first use), and the caller transfers ownership of nbrs. v must be a
// valid vertex (grow the graph first with EnsureVertices).
func (g *Graph) SetNeighbors(v int32, nbrs []int32) {
	if g.overlay == nil {
		g.overlay = make([][]int32, g.n)
	}
	if nbrs == nil {
		nbrs = []int32{}
	}
	if g.overlay[v] == nil && int(v) < g.sealed() {
		g.overlaid++
	}
	g.overlay[v] = nbrs
}

// EnsureVertices grows the graph to at least n vertices; new vertices
// start with no edges and live in the overlay until the next Compact.
func (g *Graph) EnsureVertices(n int) {
	if n <= g.n {
		return
	}
	if g.overlay == nil {
		g.overlay = make([][]int32, n)
	} else {
		for len(g.overlay) < n {
			g.overlay = append(g.overlay, nil)
		}
	}
	g.n = n
}

// OverlayVertices reports how many vertices are currently served from
// the overlay (edited lists plus appended vertices). 0 means the graph
// is fully sealed. O(1) — the index layer polls it after every insert to
// decide when to Compact.
func (g *Graph) OverlayVertices() int {
	if g.overlay == nil {
		return 0
	}
	return g.overlaid + (g.n - g.sealed())
}

// Compact folds the overlay back into a fresh CSR core covering every
// vertex, restoring the frozen flat form after a burst of incremental
// inserts. It is a no-op on a fully sealed graph. Neighbor views
// obtained before Compact remain valid (the old arrays are unshared) but
// stale; callers re-read through Neighbors.
func (g *Graph) Compact() {
	if g.overlay == nil {
		return
	}
	g.offsets, g.edges = g.compacted()
	g.overlay = nil
	g.overlaid = 0
}

// compacted builds fresh flat arrays covering every vertex, overlay
// folded in, without touching g.
func (g *Graph) compacted() (offsets []uint32, edges []int32) {
	offsets = make([]uint32, g.n+1)
	total := 0
	for v := 0; v < g.n; v++ {
		total += g.Degree(int32(v))
	}
	edges = make([]int32, 0, total)
	for v := 0; v < g.n; v++ {
		edges = append(edges, g.Neighbors(int32(v))...)
		offsets[v+1] = uint32(len(edges))
	}
	return offsets, edges
}

// CSR returns the graph's flat arrays, compacting any overlay first so
// the result covers every vertex. The returned slices are the live
// backing arrays — callers must treat them as read-only. CSR mutates
// the graph; use SnapshotCSR when readers may be running concurrently.
func (g *Graph) CSR() (offsets []uint32, edges []int32) {
	g.Compact()
	return g.offsets, g.edges
}

// SnapshotCSR returns flat arrays covering every vertex without
// mutating the graph: when an overlay exists the compacted form is
// built into fresh slices and g keeps its overlay. Safe to call
// concurrently with readers (Neighbors/Degree) under a lock that
// excludes writers — which is exactly the engine-snapshot case, where
// serialization runs under the engine's read lock alongside searches.
func (g *Graph) SnapshotCSR() (offsets []uint32, edges []int32) {
	if g.overlay == nil {
		return g.offsets, g.edges
	}
	return g.compacted()
}

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int {
	if g.overlay == nil {
		return len(g.edges)
	}
	total := 0
	for v := 0; v < g.n; v++ {
		total += g.Degree(int32(v))
	}
	return total
}

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.n)
}

// MaxDegree returns the maximum out-degree.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(int32(v)); d > m {
			m = d
		}
	}
	return m
}

// SizeBytes reports the in-memory topology size: 4 bytes per edge plus 4
// bytes per vertex of CSR offsets, plus the per-vertex slice headers and
// edge payload of any live overlay. For a sealed graph this is the
// ~4 B/edge + 4 B/vertex the Fig. 7 / Fig. 14 index-size reports count;
// the overlay term is 0 in steady state (Compact folds it away).
func (g *Graph) SizeBytes() int64 {
	total := int64(len(g.edges))*4 + int64(len(g.offsets))*4 + 8
	if g.overlay != nil {
		total += int64(len(g.overlay)) * 24 // slice headers
		for _, nbrs := range g.overlay {
			total += int64(len(nbrs)) * 4
		}
	}
	return total
}

// Reachable returns how many vertices BFS reaches from the seed.
func (g *Graph) Reachable() int {
	if g.n == 0 {
		return 0
	}
	visited := make([]bool, g.n)
	queue := []int32{g.Seed}
	visited[g.Seed] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if !visited[u] {
				visited[u] = true
				count++
				queue = append(queue, u)
			}
		}
	}
	return count
}

// Quality measures graph quality as defined in Appendix H: the mean
// fraction of each vertex's top-γ exact nearest neighbors (by the space's
// IP) present in its adjacency list. To keep it affordable it samples
// `sample` vertices deterministically (stride sampling); sample ≤ 0 means
// every vertex. The candidate and truth buffers are hoisted out of the
// sample loop — at n vertices an O(n) slice and a γ-entry map per sample
// used to dominate the allocator.
func Quality(g *Graph, s *Space, gamma, sample int) float64 {
	n := s.Len()
	if n <= 1 {
		return 1
	}
	stride := 1
	if sample > 0 && sample < n {
		stride = n / sample
	}
	type cand struct {
		id int32
		ip float32
	}
	cands := make([]cand, 0, n-1)
	truth := make(map[int32]struct{}, gamma)
	var total float64
	var counted int
	for v := 0; v < n; v += stride {
		// Exact top-γ for vertex v, reusing the hoisted buffers.
		cands = cands[:0]
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			cands = append(cands, cand{int32(u), s.IP(int32(v), int32(u))})
		}
		k := gamma
		if k > len(cands) {
			k = len(cands)
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].ip > cands[j].ip })
		for id := range truth {
			delete(truth, id)
		}
		for _, c := range cands[:k] {
			truth[c.id] = struct{}{}
		}
		hits := 0
		for _, u := range g.Neighbors(int32(v)) {
			if _, ok := truth[u]; ok {
				hits++
			}
		}
		total += float64(hits) / float64(k)
		counted++
	}
	return total / float64(counted)
}

// neighborList is a fixed-capacity list of (id, ip) pairs kept sorted by
// descending IP, used by NNDescent and the selection components.
type neighborList struct {
	ids []int32
	ips []float32
	cap int
}

func newNeighborList(capacity int) *neighborList {
	return &neighborList{
		ids: make([]int32, 0, capacity),
		ips: make([]float32, 0, capacity),
		cap: capacity,
	}
}

// insert adds (id, ip) if the list has room or ip beats the current worst,
// keeping the list sorted and duplicate-free. It reports whether the list
// changed.
func (l *neighborList) insert(id int32, ip float32) bool {
	if len(l.ids) == l.cap && ip <= l.ips[len(l.ips)-1] {
		return false
	}
	// Reject duplicates.
	for _, existing := range l.ids {
		if existing == id {
			return false
		}
	}
	// Find insertion point (descending ips).
	pos := sort.Search(len(l.ips), func(i int) bool { return l.ips[i] < ip })
	if len(l.ids) < l.cap {
		l.ids = append(l.ids, 0)
		l.ips = append(l.ips, 0)
	} else {
		pos = min(pos, l.cap-1)
	}
	copy(l.ids[pos+1:], l.ids[pos:])
	copy(l.ips[pos+1:], l.ips[pos:])
	l.ids[pos] = id
	l.ips[pos] = ip
	return true
}

// distFromIP converts an inner product into a squared Euclidean distance
// using the space's constant self-IP: ||a-b||² = 2·(selfIP − IP(a,b)).
func distFromIP(selfIP, ip float32) float32 { return 2 * (selfIP - ip) }
