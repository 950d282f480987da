package graph

import (
	"math"
	"math/rand"
	"testing"

	"must/internal/vec"
)

// Space.IPs and Space.IPsTo must be Space.IP and Space.IPTo per pair, bit
// for bit, on every path a pair can take: both rows in the materialized
// buffer, a row appended to the store after materialization (decided per
// pair), the lazy per-modality store path after Release, a raw space — and
// for lists of every length around the block width, with repeats.
func TestSpaceIPsMatchPerPairIP(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{13, 7, 24}
	unit := func() vec.Multi {
		return vec.Multi{vec.RandUnit(rng, dims[0]), vec.RandUnit(rng, dims[1]), vec.RandUnit(rng, dims[2])}
	}
	st := vec.NewFlatStore(dims, 50) // later rows land in overflow chunks
	for i := 0; i < 120; i++ {
		st.AppendMulti(unit())
	}
	w := vec.Weights{0.7, 0, 0.5}
	check := func(name string, s *Space) {
		t.Helper()
		n := s.Len()
		for trial := 0; trial < 60; trial++ {
			v := int32(rng.Intn(n))
			if trial%3 == 0 {
				v = int32(n - 1 - trial%2)
			}
			ids := make([]int32, trial%13)
			for i := range ids {
				ids[i] = int32(rng.Intn(n))
			}
			if len(ids) > 1 {
				ids[len(ids)-1] = v // a vertex against itself
				ids[0] = int32(n - 1)
			}
			q := s.Vector(int32(rng.Intn(n)))
			out, outTo := make([]float32, len(ids)), make([]float32, len(ids))
			s.IPs(v, ids, out)
			s.IPsTo(q, ids, outTo)
			for i, u := range ids {
				if want := s.IP(v, u); math.Float32bits(out[i]) != math.Float32bits(want) {
					t.Fatalf("%s: IPs(%d, …)[%d] = %v, IP(%d,%d) = %v", name, v, i, out[i], v, u, want)
				}
				if want := s.IPTo(u, q); math.Float32bits(outTo[i]) != math.Float32bits(want) {
					t.Fatalf("%s: IPsTo(q, …)[%d] = %v, IPTo(%d, q) = %v", name, i, outTo[i], u, want)
				}
			}
		}
	}
	s := NewFusedSpaceFromStore(st, w)
	check("materialized", s)
	for i := 0; i < 9; i++ {
		st.AppendMulti(unit())
	}
	check("rows appended past the buffer", s)
	s.Release()
	check("released", s)
	check("store view", StoreView(st, w))
	check("raw", testSpace(90, 21, 4, 32))
}

// naiveNNDescent is NNDescent.Init as it was before the joins were
// gathered, de-duplicated and scored per vertex: every candidate of every
// join, repeats included, offered to the list with its own Space.IP call.
// Sequential, since each vertex's list depends only on the snapshot.
func naiveNNDescent(d NNDescent, s *Space, gamma int) [][]int32 {
	n := s.Len()
	rng := rand.New(rand.NewSource(d.Seed))
	lists := make([]*neighborList, n)
	for v := 0; v < n; v++ {
		lists[v] = newNeighborList(gamma)
	}
	for v := 0; v < n; v++ {
		var picked []int32
	draw:
		for len(picked) < min(gamma, n-1) {
			u := int32(rng.Intn(n))
			if u == int32(v) {
				continue
			}
			for _, p := range picked {
				if p == u {
					continue draw
				}
			}
			picked = append(picked, u)
		}
		for _, u := range picked {
			lists[v].insert(u, s.IP(int32(v), u))
		}
	}
	for iter := 0; iter < d.Iters; iter++ {
		changed := false
		offer := func(v int, u int32) {
			if u != int32(v) && lists[v].insert(u, s.IP(int32(v), u)) {
				changed = true
			}
		}
		snapshot := make([][]int32, n)
		for v := range lists {
			snapshot[v] = append([]int32(nil), lists[v].ids...)
		}
		for v := 0; v < n; v++ {
			for _, nb := range snapshot[v] {
				for _, u := range snapshot[nb] {
					offer(v, u)
				}
			}
		}
		rev := make([][]int32, n)
		for v := 0; v < n; v++ {
			for _, u := range lists[v].ids {
				rev[u] = append(rev[u], int32(v))
			}
		}
		for v := 0; v < n; v++ {
			for _, u := range rev[v] {
				offer(v, u)
			}
		}
		if !changed {
			break
		}
	}
	adj := make([][]int32, n)
	for v := range lists {
		adj[v] = lists[v].ids
	}
	return adj
}

// The gathered, de-duplicated, block-scored joins must leave every
// neighbour list exactly as the naive loops do, at any worker count.
func TestNNDescentMatchesNaiveJoins(t *testing.T) {
	for _, tc := range []struct {
		n, dim, clusters, gamma, iters int
	}{
		{300, 12, 4, 10, 3},
		{97, 9, 1, 6, 4},
		{8, 5, 1, 10, 2}, // gamma > n-1: lists never fill
	} {
		s := testSpace(tc.n, tc.dim, tc.clusters, int64(tc.n))
		d := NNDescent{Iters: tc.iters, Seed: 9}
		want := naiveNNDescent(d, s, tc.gamma)
		for _, workers := range []int{1, 8} {
			prev := SetBuildWorkers(workers)
			got := d.Init(s, tc.gamma)
			SetBuildWorkers(prev)
			for v := range want {
				if len(got[v]) != len(want[v]) {
					t.Fatalf("n=%d workers=%d vertex %d: %v, naive %v", tc.n, workers, v, got[v], want[v])
				}
				for i := range want[v] {
					if got[v][i] != want[v][i] {
						t.Fatalf("n=%d workers=%d vertex %d: %v, naive %v", tc.n, workers, v, got[v], want[v])
					}
				}
			}
		}
	}
}
