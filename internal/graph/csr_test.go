package graph

import (
	"math/rand"
	"testing"

	"must/internal/vec"
)

// NewCSR must preserve the builder adjacency list-for-list, report the
// CSR cost model, and stay overlay-free.
func TestNewCSRPreservesAdjacency(t *testing.T) {
	adj := [][]int32{{1, 2}, {2}, {}, {0, 1, 2}}
	g := NewCSR(adj, 3)
	if g.NumVertices() != 4 || g.NumEdges() != 6 || g.Seed != 3 {
		t.Fatalf("basic counts wrong: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	for v, want := range adj {
		got := g.Neighbors(int32(v))
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d: %v, want %v", v, got, want)
			}
		}
		if g.Degree(int32(v)) != len(want) {
			t.Fatalf("vertex %d degree %d, want %d", v, g.Degree(int32(v)), len(want))
		}
	}
	if g.OverlayVertices() != 0 {
		t.Fatal("fresh CSR graph reports overlay vertices")
	}
	// 4 B/edge + 4 B/(vertex+1) + seed: the whole point of the layout.
	want := int64(6*4 + 5*4 + 8)
	if g.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", g.SizeBytes(), want)
	}
}

// Neighbors must be a zero-copy view into the flat edge array.
func TestNeighborsZeroCopy(t *testing.T) {
	g := NewCSR([][]int32{{1, 2}, {0}, {0, 1}}, 0)
	a, b := g.Neighbors(0), g.Neighbors(2)
	offsets, edges := g.CSR()
	if &a[0] != &edges[offsets[0]] || &b[0] != &edges[offsets[2]] {
		t.Fatal("Neighbors returned a copy, not a CSR subslice")
	}
}

// SetNeighbors and EnsureVertices must leave the frozen core untouched,
// serve edits from the overlay, and Compact must fold everything back
// into a sealed CSR identical to the overlaid view.
func TestOverlayEditAndCompact(t *testing.T) {
	g := NewCSR([][]int32{{1}, {2}, {0}}, 0)
	g.EnsureVertices(4)
	if g.NumVertices() != 4 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if got := g.Neighbors(3); len(got) != 0 {
		t.Fatalf("appended vertex has edges: %v", got)
	}
	g.SetNeighbors(3, []int32{0, 2})
	g.SetNeighbors(1, []int32{2, 3})
	if g.OverlayVertices() != 2 {
		t.Fatalf("overlay vertices = %d, want 2", g.OverlayVertices())
	}
	if g.NumEdges() != 1+2+1+2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Untouched sealed vertices still read from the core.
	if n := g.Neighbors(0); len(n) != 1 || n[0] != 1 {
		t.Fatalf("vertex 0 = %v", n)
	}
	before := make([][]int32, g.NumVertices())
	for v := range before {
		before[v] = append([]int32(nil), g.Neighbors(int32(v))...)
	}
	g.Compact()
	if g.OverlayVertices() != 0 {
		t.Fatal("Compact left overlay vertices")
	}
	for v := range before {
		got := g.Neighbors(int32(v))
		if len(got) != len(before[v]) {
			t.Fatalf("vertex %d changed across Compact: %v vs %v", v, got, before[v])
		}
		for i := range got {
			if got[i] != before[v][i] {
				t.Fatalf("vertex %d changed across Compact: %v vs %v", v, got, before[v])
			}
		}
	}
	// Compacted topology is flat again: zero-copy views, CSR cost model.
	offsets, edges := g.CSR()
	if int(offsets[len(offsets)-1]) != len(edges) || len(offsets) != g.NumVertices()+1 {
		t.Fatal("compacted CSR arrays inconsistent")
	}
}

// Insert → Compact over a real built graph: the §IX dynamic-update path
// must keep every pre-insert neighbor reachable and survive compaction
// with identical topology.
func TestInsertThenCompactOverCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	objs := make([]vec.Multi, 300)
	for i := range objs {
		objs[i] = vec.Multi{vec.RandUnit(rng, 12), vec.RandUnit(rng, 6)}
	}
	st := vec.FlatFromMulti(objs)
	s := NewFusedSpaceFromStore(st, vec.Weights{0.8, 0.6})
	g, err := Ours(10, 3, 72).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	for k := 0; k < 20; k++ {
		id := int32(st.AppendMulti(vec.Multi{vec.RandUnit(rng, 12), vec.RandUnit(rng, 6)}))
		Insert(s, g, id, 10, 40, new(RouteScratch))
	}
	if g.OverlayVertices() == 0 {
		t.Fatal("inserts did not populate the overlay")
	}
	before := make([][]int32, g.NumVertices())
	for v := range before {
		before[v] = append([]int32(nil), g.Neighbors(int32(v))...)
	}
	g.Compact()
	for v := range before {
		got := g.Neighbors(int32(v))
		if len(got) != len(before[v]) {
			t.Fatalf("vertex %d changed across Compact", v)
		}
		for i := range got {
			if got[i] != before[v][i] {
				t.Fatalf("vertex %d changed across Compact", v)
			}
		}
	}
	// Every inserted vertex stays routable on the compacted graph.
	for id := int32(300); id < int32(g.NumVertices()); id++ {
		found := false
		for _, u := range new(RouteScratch).graph(s, g, g.Seed, s.Vector(id), 40) {
			if u == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("beam search cannot reach inserted vertex %d after Compact", id)
		}
	}
}

func TestSnapshotCSRDoesNotMutate(t *testing.T) {
	g := NewCSR([][]int32{{1}, {2}, {0}}, 0)
	g.EnsureVertices(4)
	g.SetNeighbors(3, []int32{0, 2})
	g.SetNeighbors(1, []int32{2, 3})
	offsets, edges := g.SnapshotCSR()
	if g.OverlayVertices() != 2 {
		t.Fatalf("SnapshotCSR disturbed the overlay: %d vertices", g.OverlayVertices())
	}
	if len(offsets) != g.NumVertices()+1 || int(offsets[len(offsets)-1]) != len(edges) {
		t.Fatal("snapshot CSR arrays inconsistent")
	}
	// The snapshot must equal what a mutating Compact+CSR produces.
	co, ce := g.CSR()
	if g.OverlayVertices() != 0 {
		t.Fatal("CSR left overlay vertices")
	}
	if len(co) != len(offsets) || len(ce) != len(edges) {
		t.Fatalf("snapshot differs from compacted: %d/%d offsets, %d/%d edges",
			len(offsets), len(co), len(edges), len(ce))
	}
	for i := range co {
		if co[i] != offsets[i] {
			t.Fatalf("offset %d: snapshot %d, compacted %d", i, offsets[i], co[i])
		}
	}
	for i := range ce {
		if ce[i] != edges[i] {
			t.Fatalf("edge %d: snapshot %d, compacted %d", i, edges[i], ce[i])
		}
	}
	// Fully sealed: the live arrays come back without copying.
	o2, e2 := g.SnapshotCSR()
	if &o2[0] != &co[0] || &e2[0] != &ce[0] {
		t.Fatal("sealed SnapshotCSR copied the live arrays")
	}
}
