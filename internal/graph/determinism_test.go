package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"must/internal/vec"
)

func determinismFixture(t *testing.T, n int, seed int64) *Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objects := make([]vec.Multi, n)
	for i := range objects {
		objects[i] = vec.Multi{vec.RandUnit(rng, 20), vec.RandUnit(rng, 10)}
	}
	return NewFusedSpaceFromStore(vec.FlatFromMulti(objects), vec.Weights{0.8, 0.6})
}

// graphsEqual compares two sealed graphs edge-for-edge through the public
// topology accessors (CSR offsets/edges included, since Neighbors views
// straight into them).
func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.Seed != b.Seed {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(int32(v)), b.Neighbors(int32(v))
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

// The parallel build must produce a sealed CSR graph identical to the
// sequential build for the same seed at every worker count: every
// parallel stage (NNDescent joins, candidate acquisition + selection,
// medoid inner products) writes only vertex-owned state, and the CSR
// seal is a deterministic concatenation in vertex order, so the output
// may not depend on the worker count.
func TestParallelBuildMatchesSequential(t *testing.T) {
	space := determinismFixture(t, 600, 51)
	pipelines := map[string]func() Pipeline{
		"Ours":   func() Pipeline { return Ours(14, 3, 52) },
		"KGraph": func() Pipeline { return KGraphAssembly(14, 3, 52) },
		"NSG":    func() Pipeline { return NSGAssembly(14, 3, 28, 52) },
	}
	for name, mk := range pipelines {
		prev := SetBuildWorkers(1)
		seq, err := mk().Build(space)
		if err != nil {
			SetBuildWorkers(prev)
			t.Fatalf("%s sequential build: %v", name, err)
		}
		for _, workers := range []int{2, 3, 8} {
			SetBuildWorkers(workers)
			par, err := mk().Build(space)
			if err != nil {
				SetBuildWorkers(prev)
				t.Fatalf("%s build with %d workers: %v", name, workers, err)
			}
			if seq.Seed != par.Seed {
				t.Errorf("%s (%d workers): seeds differ: sequential %d, parallel %d", name, workers, seq.Seed, par.Seed)
			}
			if !graphsEqual(seq, par) {
				for v := 0; v < seq.NumVertices(); v++ {
					sv, pv := seq.Neighbors(int32(v)), par.Neighbors(int32(v))
					if len(sv) != len(pv) {
						t.Fatalf("%s (%d workers): adjacency of vertex %d differs: sequential %v, parallel %v",
							name, workers, v, sv, pv)
					}
					for i := range sv {
						if sv[i] != pv[i] {
							t.Fatalf("%s (%d workers): adjacency of vertex %d differs: sequential %v, parallel %v",
								name, workers, v, sv, pv)
						}
					}
				}
			}
		}
		SetBuildWorkers(prev)
	}
}

// Rebuilding with the same seed must reproduce the same graph; a
// different seed must not (the randomness is real, just pinned).
func TestBuildSeedDeterminism(t *testing.T) {
	space := determinismFixture(t, 400, 53)
	a, err := Ours(12, 3, 54).Build(space)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Ours(12, 3, 54).Build(space)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(a, b) {
		t.Error("same seed produced different graphs")
	}
	c, err := Ours(12, 3, 99).Build(space)
	if err != nil {
		t.Fatal(err)
	}
	if graphsEqual(a, c) {
		t.Error("different seeds produced identical graphs (suspicious)")
	}
}

func TestSetBuildWorkersRoundTrip(t *testing.T) {
	prev := SetBuildWorkers(3)
	if got := SetBuildWorkers(prev); got != 3 {
		t.Errorf("SetBuildWorkers returned %d, want 3", got)
	}
	if got := SetBuildWorkers(0); got != prev {
		t.Errorf("restore returned %d, want %d", got, prev)
	}
	SetBuildWorkers(-5) // negative clamps to the default
	if got := SetBuildWorkers(0); got != 0 {
		t.Errorf("negative worker count stored as %d, want 0", got)
	}
}

// graphHash folds a graph's seed and every adjacency list, in vertex
// order, into one FNV-1a value.
func graphHash(g *Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		_, _ = h.Write(b[:])
	}
	put(uint32(g.Seed))
	put(uint32(g.NumVertices()))
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.Neighbors(int32(v))
		put(uint32(len(nbrs)))
		for _, u := range nbrs {
			put(uint32(u))
		}
	}
	return h.Sum64()
}

// The hashes below were recorded at commit a8a95de, before MRNG.Select
// reused the inner products sortByIP had already computed and before the
// routing beam search moved from a per-call map to an epoch-stamped
// scratch. Both are output-identical rewrites: the same seeded builds and
// the same insert sequence must still produce these exact edges. A change
// that alters the graphs on purpose re-records them.
func TestPinnedGraphHashes(t *testing.T) {
	space := determinismFixture(t, 600, 51)
	ours, err := Ours(14, 3, 52).Build(space)
	if err != nil {
		t.Fatal(err)
	}
	nsg, err := NSGAssembly(14, 3, 28, 52).Build(space)
	if err != nil {
		t.Fatal(err)
	}
	vamana := BuildVamana(space, VamanaConfig{Gamma: 14, Beam: 28, Seed: 52})

	// A fixed insert sequence over a released store-backed space: the §IX
	// path, routed through CSR core, overlay lists and appended vertices.
	rng := rand.New(rand.NewSource(61))
	objs := make([]vec.Multi, 300)
	for i := range objs {
		objs[i] = vec.Multi{vec.RandUnit(rng, 12), vec.RandUnit(rng, 6)}
	}
	st := vec.FlatFromMulti(objs)
	s := NewFusedSpaceFromStore(st, vec.Weights{0.8, 0.6})
	inserted, err := Ours(10, 3, 62).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	var sc RouteScratch
	for k := 0; k < 120; k++ {
		id := int32(st.AppendMulti(vec.Multi{vec.RandUnit(rng, 12), vec.RandUnit(rng, 6)}))
		Insert(s, inserted, id, 10, 40, &sc)
		if k == 60 {
			inserted.Compact() // later inserts route over a re-sealed core
		}
	}

	for _, tc := range []struct {
		name string
		g    *Graph
		want uint64
	}{
		{"Ours", ours, 0x28e16a60a3ac4ef4},
		{"NSG", nsg, 0x995c8ace077d25de},
		{"Vamana", vamana, 0x19f19ae35094ada0},
		{"Ours+120 inserts", inserted, 0x1d9af42c6b1e423b},
	} {
		if got := graphHash(tc.g); got != tc.want {
			t.Errorf("%s: graph hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
