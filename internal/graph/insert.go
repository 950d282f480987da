package graph

// Incremental insertion (§IX of the paper): "upon the arrival of a new
// object, its embedding vector can be used to search for neighbors in the
// index, updating them accordingly" — the HNSW/Vamana-style dynamic
// update. The new vertex beam-searches for its neighborhood, links via
// MRNG selection, and adds degree-capped reverse edges.
//
// The graph's frozen CSR core is never edited in place: the new vertex's
// list and every reverse-edge edit land in the append-overlay
// (Graph.SetNeighbors), and the index layer compacts the overlay back
// into CSR once it grows past a small fraction of the graph.

// Append copies a vector into a raw space's buffer and returns its new
// index. The vector must have the space's dimension and the same
// self-inner-product as the rest of the space (a weighted concatenation of
// unit vectors). Append may reallocate the buffer; views previously
// returned by Vector are no longer tied to the space afterwards.
//
// Store-backed fused spaces reject Append: their rows live in the shared
// vec.FlatStore, so new objects are appended to the store (one copy,
// visible to every layer) and become visible here through Len.
func (s *Space) Append(v []float32) int32 {
	if s.st != nil {
		panic("graph: Append on a store-backed space; append to the shared store instead")
	}
	if len(v) != s.Dim() {
		panic("graph: Append dimension mismatch")
	}
	s.fused = append(s.fused, v...)
	s.n++
	s.fusedRows = s.n
	return int32(s.n - 1)
}

// Insert links an already-appended vertex id into the graph: it routes a
// beam search toward the vertex from the seed, selects up to gamma diverse
// neighbors with the MRNG rule, and installs reverse edges capped at
// gamma (re-selected when they overflow). It returns the vertex id. The
// beam search runs in r, which the caller reuses across inserts.
func Insert(s *Space, g *Graph, id int32, gamma, beam int, r *RouteScratch) int32 {
	if beam < gamma {
		beam = gamma
	}
	// Grow the vertex set up to the space size (supports callers that
	// appended several vectors before linking).
	g.EnsureVertices(s.Len())
	// sortByIP skips id itself, so the visit order is the candidate list.
	neighbors := MRNG{}.Select(s, id, r.graph(s, g, g.Seed, s.Vector(id), beam), gamma)
	g.SetNeighbors(id, neighbors)
	for _, u := range neighbors {
		lst := g.Neighbors(u)
		present := false
		for _, w := range lst {
			if w == id {
				present = true
				break
			}
		}
		if present {
			continue
		}
		// Copy-on-write: lst may be a view into the frozen CSR edge array,
		// so the reverse edge is added on a fresh overlay list.
		grown := make([]int32, 0, len(lst)+1)
		grown = append(grown, lst...)
		grown = append(grown, id)
		if len(grown) > gamma {
			grown = MRNG{}.Select(s, u, grown, gamma)
		}
		g.SetNeighbors(u, grown)
	}
	return id
}
