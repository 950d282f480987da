package graph

import "slices"

// neighborsFunc resolves a vertex's out-neighbor list. Build-time code
// passes a view over its working [][]int32 adjacency; post-seal code
// (incremental inserts) passes Graph.Neighbors.
type neighborsFunc func(v int32) []int32

// sliceNeighbors adapts a builder's working adjacency to neighborsFunc.
func sliceNeighbors(adj [][]int32) neighborsFunc {
	return func(v int32) []int32 { return adj[v] }
}

// epochMarks is a reusable seen-set over vertex IDs, the design
// search.Searcher uses: marks[v] == gen means v has been seen since the
// last reset, and a reset advances gen, so the array resets without being
// touched. The zero value is ready to use.
type epochMarks struct {
	marks []uint32
	gen   uint32
}

// reset forgets every seen ID and makes room for n vertices.
func (e *epochMarks) reset(n int) {
	if len(e.marks) < n {
		e.marks = append(e.marks, make([]uint32, n-len(e.marks))...)
	}
	e.gen++
	if e.gen == 0 { // wrapped: stale stamps could alias the new epoch
		clear(e.marks)
		e.gen = 1
	}
}

// see marks id as seen and reports whether it was unseen until now.
func (e *epochMarks) see(id int32) bool {
	if e.marks[id] == e.gen {
		return false
	}
	e.marks[id] = e.gen
	return true
}

// RouteScratch is the reusable state of the routing beam search: the
// seen marks (a vertex is seen once its IP has been computed), the beam
// and the visit-order buffer. One scratch serves one search at a time;
// the zero value is ready to use. index.Fused owns one for incremental
// inserts (serialized by the engine's write lock) and each build worker
// owns one through its candScratch.
type RouteScratch struct {
	epochMarks
	pool  []beamEntry
	visit []int32
	// batch and ips are one hop's unmarked neighbours and their IPs to
	// the query, scored in one Space.IPsTo call.
	batch []int32
	ips   []float32
}

// beamEntry is one entry of the beam, which is kept sorted by
// descending IP.
type beamEntry struct {
	id      int32
	ip      float32
	visited bool
}

// vertex routes over a builder's working adjacency from start toward the
// stored vertex target — the build-time primitive of NSG-style candidate
// acquisition and Vamana's construction passes. beam is the working-set
// size (NSG's L / Vamana's L).
func (r *RouteScratch) vertex(s *Space, adj [][]int32, start, target int32, beam int) []int32 {
	return r.beamSearch(s, sliceNeighbors(adj), len(adj), start, s.Vector(target), beam)
}

// graph routes over a sealed Graph (CSR core plus overlay) — the §IX
// incremental-insert path.
func (r *RouteScratch) graph(s *Space, g *Graph, start int32, query []float32, beam int) []int32 {
	return r.beamSearch(s, g.Neighbors, g.NumVertices(), start, query, beam)
}

// beamSearch runs a greedy beam search over n vertices from start toward
// query and returns the visited vertices in visit order. The returned
// slice is the scratch's own buffer, valid until its next search.
func (r *RouteScratch) beamSearch(s *Space, neighbors neighborsFunc, n int, start int32, query []float32, beam int) []int32 {
	if beam < 1 {
		beam = 1
	}
	r.reset(n)
	if cap(r.pool) < beam {
		r.pool = make([]beamEntry, 0, beam)
	}
	pool := r.pool[:0]
	visit := r.visit[:0]
	// cursor is the lowest index that may hold an unvisited entry:
	// everything before it is visited, so the per-hop "best unvisited"
	// lookup resumes from it instead of rescanning the beam.
	cursor := 0

	insert := func(id int32, ip float32) {
		if len(pool) == beam && ip <= pool[len(pool)-1].ip {
			return
		}
		// First entry with a smaller IP, so equal IPs keep arrival order.
		lo, hi := 0, len(pool)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if pool[mid].ip < ip {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		pos := lo
		if len(pool) < beam {
			pool = append(pool, beamEntry{})
		} else {
			pos = min(pos, beam-1)
		}
		copy(pool[pos+1:], pool[pos:])
		pool[pos] = beamEntry{id: id, ip: ip}
		if pos < cursor {
			cursor = pos
		}
	}

	r.see(start)
	insert(start, s.IPTo(start, query))
	for {
		for cursor < len(pool) && pool[cursor].visited {
			cursor++
		}
		if cursor == len(pool) {
			break
		}
		pool[cursor].visited = true
		v := pool[cursor].id
		visit = append(visit, v)
		batch := r.batch[:0]
		for _, u := range neighbors(v) {
			if r.see(u) {
				batch = append(batch, u)
			}
		}
		r.batch = batch
		r.ips = slices.Grow(r.ips[:0], len(batch))[:len(batch)]
		s.IPsTo(query, batch, r.ips)
		for i, u := range batch {
			insert(u, r.ips[i])
		}
	}
	r.pool, r.visit = pool[:0], visit
	return visit
}
