package graph

import (
	"math/rand"
	"sort"
	"testing"

	"must/internal/vec"
)

func TestBeamSearchVectorFindsNearest(t *testing.T) {
	s := testSpace(600, 16, 6, 21)
	g, err := Ours(16, 3, 22).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	hits := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		// Data-like queries: perturbations of stored vectors, the regime
		// proximity graphs are built for.
		q := vec.AddGaussianNoise(rng, s.Vector(int32(rng.Intn(s.Len()))), 0.3)
		// Exact nearest vertex.
		best := int32(0)
		bestIP := s.IPTo(0, q)
		for v := 1; v < s.Len(); v++ {
			if ip := s.IPTo(int32(v), q); ip > bestIP {
				bestIP = ip
				best = int32(v)
			}
		}
		visited := new(RouteScratch).graph(s, g, g.Seed, q, 40)
		for _, u := range visited {
			if u == best {
				hits++
				break
			}
		}
	}
	if hits < trials*8/10 {
		t.Errorf("beam search found the exact nearest vertex in %d/%d trials", hits, trials)
	}
}

func TestBeamSearchVisitOrderStartsAtSeed(t *testing.T) {
	s := testSpace(100, 8, 2, 24)
	g, err := Ours(8, 2, 25).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	visited := new(RouteScratch).graph(s, g, g.Seed, s.Vector(3), 10)
	if len(visited) == 0 || visited[0] != g.Seed {
		t.Errorf("visit order must start at the seed, got %v", visited)
	}
	// No duplicates in visit order.
	seen := map[int32]bool{}
	for _, v := range visited {
		if seen[v] {
			t.Fatalf("vertex %d visited twice", v)
		}
		seen[v] = true
	}
}

func TestBeamSearchDegenerateBeam(t *testing.T) {
	s := testSpace(50, 8, 2, 26)
	g, err := Ours(6, 2, 27).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// beam < 1 is clamped to 1: pure greedy descent, still terminates.
	visited := new(RouteScratch).graph(s, g, g.Seed, s.Vector(7), 0)
	if len(visited) == 0 {
		t.Fatal("greedy descent visited nothing")
	}
}

func TestBeamSearchWiderBeamVisitsMore(t *testing.T) {
	s := testSpace(400, 12, 4, 28)
	g, err := Ours(12, 3, 29).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	narrow := new(RouteScratch).graph(s, g, g.Seed, s.Vector(5), 4)
	wide := new(RouteScratch).graph(s, g, g.Seed, s.Vector(5), 64)
	if len(wide) <= len(narrow) {
		t.Errorf("wider beam visited %d vertices, narrow visited %d", len(wide), len(narrow))
	}
}

// refBeamSearch is the map-based beam search RouteScratch.beamSearch
// replaced, kept as the reference the scratch version must match visit
// for visit: a fresh seen-map per call, a rescan for the best unvisited
// entry per hop, sort.Search for the insert position.
func refBeamSearch(s *Space, neighbors neighborsFunc, start int32, query []float32, beam int) []int32 {
	if beam < 1 {
		beam = 1
	}
	type entry struct {
		id      int32
		ip      float32
		visited bool
	}
	pool := make([]entry, 0, beam+1)
	seen := map[int32]struct{}{start: {}}
	pool = append(pool, entry{start, s.IPTo(start, query), false})
	var visitOrder []int32

	insert := func(id int32, ip float32) {
		if len(pool) == beam && ip <= pool[len(pool)-1].ip {
			return
		}
		pos := sort.Search(len(pool), func(i int) bool { return pool[i].ip < ip })
		if len(pool) < beam {
			pool = append(pool, entry{})
		} else {
			pos = min(pos, beam-1)
		}
		copy(pool[pos+1:], pool[pos:])
		pool[pos] = entry{id, ip, false}
	}

	for {
		idx := -1
		for i := range pool {
			if !pool[i].visited {
				idx = i
				break
			}
		}
		if idx == -1 {
			break
		}
		pool[idx].visited = true
		v := pool[idx].id
		visitOrder = append(visitOrder, v)
		for _, u := range neighbors(v) {
			if _, ok := seen[u]; ok {
				continue
			}
			seen[u] = struct{}{}
			insert(u, s.IPTo(u, query))
		}
	}
	return visitOrder
}

// One scratch, reused across every search below, must visit exactly the
// vertices the reference visits, in the same order — over builder
// adjacencies, sealed CSR graphs, overlaid lists and appended vertices,
// with duplicate vectors (IP ties) and degenerate beams in the mix. This
// is what makes a fixed insert sequence yield the parent's graph.
func TestBeamSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var sc RouteScratch
	check := func(t *testing.T, s *Space, neighbors neighborsFunc, n int, beam int) {
		t.Helper()
		start := int32(rng.Intn(n))
		q := vec.AddGaussianNoise(rng, s.Vector(int32(rng.Intn(n))), 0.3)
		want := refBeamSearch(s, neighbors, start, q, beam)
		got := sc.beamSearch(s, neighbors, n, start, q, beam)
		if len(got) != len(want) {
			t.Fatalf("beam %d from %d: visited %d vertices, reference %d", beam, start, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("beam %d from %d: visit %d is vertex %d, reference %d", beam, start, i, got[i], want[i])
			}
		}
	}
	beams := []int{0, 1, 2, 7, 40, 300}

	t.Run("random adjacency with ties", func(t *testing.T) {
		// Every vector appears twice, so equal IPs are common, and the
		// adjacency is random (self-loops and repeated edges included).
		base := make([][]float32, 150)
		for i := range base {
			base[i] = vec.RandUnit(rng, 8)
		}
		s := NewSpace(append(base, base...))
		adj := make([][]int32, s.Len())
		for v := range adj {
			for k := rng.Intn(9); k > 0; k-- {
				adj[v] = append(adj[v], int32(rng.Intn(s.Len())))
			}
		}
		for trial := 0; trial < 200; trial++ {
			check(t, s, sliceNeighbors(adj), len(adj), beams[trial%len(beams)])
		}
	})

	t.Run("sealed graph growing by inserts", func(t *testing.T) {
		objs := make([]vec.Multi, 250)
		for i := range objs {
			objs[i] = vec.Multi{vec.RandUnit(rng, 10), vec.RandUnit(rng, 5)}
		}
		st := vec.FlatFromMulti(objs)
		s := NewFusedSpaceFromStore(st, vec.Weights{0.8, 0.6})
		g, err := Ours(8, 3, 32).Build(s)
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
		var ins RouteScratch
		for k := 0; k < 80; k++ {
			id := int32(st.AppendMulti(vec.Multi{vec.RandUnit(rng, 10), vec.RandUnit(rng, 5)}))
			Insert(s, g, id, 8, 24, &ins)
			if k == 40 {
				g.Compact()
			}
			// The shared scratch sees the vertex set grow between searches.
			check(t, s, g.Neighbors, g.NumVertices(), beams[k%len(beams)])
		}
	})
}

// The epoch counter wrapping must not let stale stamps alias the new
// epoch.
func TestBeamSearchEpochWrap(t *testing.T) {
	s := testSpace(120, 8, 3, 33)
	g, err := Ours(8, 2, 34).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	var sc RouteScratch
	want := append([]int32(nil), sc.graph(s, g, g.Seed, s.Vector(9), 16)...)
	sc.gen = ^uint32(0) - 1
	for i := 0; i < 3; i++ { // gen: max, wrap to 1, 2
		got := sc.graph(s, g, g.Seed, s.Vector(9), 16)
		if len(got) != len(want) {
			t.Fatalf("search %d after the wrap visited %d vertices, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("search %d after the wrap: visit %d is %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}
