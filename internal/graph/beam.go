package graph

// neighborsFunc resolves a vertex's out-neighbor list. Build-time code
// passes a view over its working [][]int32 adjacency; post-seal code
// (incremental inserts) passes Graph.Neighbors.
type neighborsFunc func(v int32) []int32

// sliceNeighbors adapts a builder's working adjacency to neighborsFunc.
func sliceNeighbors(adj [][]int32) neighborsFunc {
	return func(v int32) []int32 { return adj[v] }
}

// RouteScratch is the reusable state of the routing beam search: the
// epoch-stamped seen marks (the design search.Searcher uses), the beam
// and the visit-order buffer. One scratch serves one search at a time;
// the zero value is ready to use. index.Fused owns one for incremental
// inserts (serialized by the engine's write lock) and each build worker
// owns one through its candScratch.
type RouteScratch struct {
	// marks[v] == gen means v's IP has been computed this search; gen
	// advances per search, so the array resets without being touched.
	marks []uint32
	gen   uint32
	pool  []beamEntry
	visit []int32
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
	if len(r.marks) < n {
		r.marks = append(r.marks, make([]uint32, n-len(r.marks))...)
	}
	r.gen++
	if r.gen == 0 { // wrapped: stale stamps could alias the new epoch
		clear(r.marks)
		r.gen = 1
	}
	marks, gen := r.marks, r.gen
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

	marks[start] = gen
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
		for _, u := range neighbors(v) {
			if marks[u] == gen {
				continue
			}
			marks[u] = gen
			insert(u, s.IPTo(u, query))
		}
	}
	r.pool, r.visit = pool[:0], visit
	return visit
}
