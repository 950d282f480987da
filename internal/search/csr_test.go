package search

import (
	"math/rand"
	"testing"

	"must/internal/graph"
	"must/internal/vec"
)

// The CSR core and the append-overlay are two storage paths for the same
// topology; routing must not be able to tell them apart. This pins the
// refactor from [][]int32 adjacency to CSR: a graph whose every list is
// served from the overlay (the old slice-per-vertex shape) must produce
// bit-identical results and routing Stats to the sealed CSR graph.
func TestCSRAndOverlaySearchIdentical(t *testing.T) {
	_, st, w, g := buildFixture(t, 900, 81)
	// Rebuild the same topology with every vertex overlaid.
	adj := make([][]int32, g.NumVertices())
	for v := range adj {
		adj[v] = append([]int32(nil), g.Neighbors(int32(v))...)
	}
	overlaid := graph.NewCSR(make([][]int32, len(adj)), g.Seed)
	for v := range adj {
		overlaid.SetNeighbors(int32(v), adj[v])
	}
	if overlaid.OverlayVertices() != len(adj) {
		t.Fatalf("overlay coverage = %d, want %d", overlaid.OverlayVertices(), len(adj))
	}

	rng := rand.New(rand.NewSource(82))
	a := NewFlat(g, st, w)
	b := NewFlat(overlaid, st, w)
	for qi := 0; qi < 15; qi++ {
		q := randomQuery(rng)
		ra, sa, err := a.Search(q, 10, 150)
		if err != nil {
			t.Fatal(err)
		}
		ra = CloneResults(ra)
		rb, sb, err := b.Search(q, 10, 150)
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Fatalf("query %d: stats differ: CSR %+v vs overlay %+v", qi, sa, sb)
		}
		if len(ra) != len(rb) {
			t.Fatalf("query %d: result counts differ", qi)
		}
		for i := range ra {
			if ra[i].ID != rb[i].ID || ra[i].IP != rb[i].IP {
				t.Fatalf("query %d rank %d: CSR (%d,%v) vs overlay (%d,%v)",
					qi, i, ra[i].ID, ra[i].IP, rb[i].ID, rb[i].IP)
			}
		}
	}
	// Compacting the overlaid graph must not change anything either.
	overlaid.Compact()
	c := NewFlat(overlaid, st, w)
	a2 := NewFlat(g, st, w)
	q := randomQuery(rng)
	ra, _, err := a2.Search(q, 10, 150)
	if err != nil {
		t.Fatal(err)
	}
	ra = CloneResults(ra)
	rc, _, err := c.Search(q, 10, 150)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra {
		if ra[i].ID != rc[i].ID {
			t.Fatalf("rank %d differs after Compact", i)
		}
	}
}

// Steady-state searches must not allocate: the epoch-stamped visit marks,
// the reused result pool, and the in-place scanner reset together make
// the per-call footprint zero. This test is the zero-allocation gate.
func TestSearchSteadyStateZeroAllocs(t *testing.T) {
	_, st, w, g := buildFixture(t, 600, 83)
	s := NewFlat(g, st, w)
	rng := rand.New(rand.NewSource(84))
	queries := make([]vec.Multi, 8)
	for i := range queries {
		queries[i] = randomQuery(rng)
	}
	// Warm the reusable buffers.
	for _, q := range queries {
		if _, _, err := s.Search(q, 10, 200); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(40, func() {
		q := queries[i%len(queries)]
		i++
		if _, _, err := s.Search(q, 10, 200); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state search allocates %.2f times per call, want 0", avg)
	}
}
