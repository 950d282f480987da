package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"must/internal/graph"
	"must/internal/vec"
)

// referenceSearch is Algorithm 2 scored the way it was before the hop loop
// went blocked: one FlatScanner.Scan or FullIP call per candidate row, in
// gather order, each against the threshold as it stands at that moment. It
// keeps none of the Searcher's bookkeeping (no epoch marks, no cursor, no
// reused buffers), so the two share the scanner's single-row methods and
// nothing else. Its random starts come from a fresh seed-1 RNG per query,
// as a new Searcher's first search draws them.
func referenceSearch(g *graph.Graph, st *vec.FlatStore, w vec.Weights, q vec.Multi, p Params) ([]Result, Stats) {
	rng := rand.New(rand.NewSource(1))
	var stats Stats
	n := st.Len()
	l := min(p.L, n)
	fs := vec.NewFlatScanner(st, w, q)
	type entry struct {
		id      int32
		ip      float32
		visited bool
	}
	var pool []entry
	insert := func(id int32, ip float32) {
		pos := 0
		for pos < len(pool) && !(pool[pos].ip < ip) {
			pos++
		}
		if len(pool) == l {
			if pos >= l {
				return
			}
			pool = pool[:l-1]
		}
		pool = append(pool, entry{})
		copy(pool[pos+1:], pool[pos:])
		pool[pos] = entry{id: id, ip: ip}
	}
	seen := make([]bool, n)
	full := func(id int32) float32 {
		stats.FullEvals++
		return fs.FullIP(st.Row(int(id)))
	}
	seen[g.Seed] = true
	insert(g.Seed, full(g.Seed))
	for len(pool) < l {
		id := int32(rng.Intn(n))
		if seen[id] {
			continue
		}
		seen[id] = true
		insert(id, full(id))
	}
	stale := 0
	for {
		at := -1
		for i := range pool {
			if !pool[i].visited {
				at = i
				break
			}
		}
		if at < 0 {
			break
		}
		pool[at].visited = true
		stats.Hops++
		improved := false
		for _, u := range g.Neighbors(pool[at].id) {
			if seen[u] {
				continue
			}
			seen[u] = true
			threshold := pool[len(pool)-1].ip
			var ip float32
			if p.Optimize && len(pool) == l {
				bound, exact := fs.Scan(st.Row(int(u)), threshold)
				if !exact {
					stats.PartialSkips++
					continue
				}
				stats.FullEvals++
				ip = bound
			} else {
				ip = full(u)
				if len(pool) == l && ip <= threshold {
					continue
				}
			}
			insert(u, ip)
			improved = true
		}
		if p.Patience > 0 {
			if improved {
				stale = 0
			} else if stale++; stale >= p.Patience {
				break
			}
		}
	}
	var out []Result
	for _, e := range pool {
		if len(out) == p.K {
			break
		}
		if int(e.id) < len(p.Tombstones) && p.Tombstones[e.id] {
			continue
		}
		if p.Filter != nil && !p.Filter(int(e.id)) {
			continue
		}
		out = append(out, Result{ID: int(e.id), IP: e.ip})
	}
	return out, stats
}

// TestBlockedSearchMatchesRowAtATime is the differential test above the
// kernel: blocked hop scoring must return the reference's IDs, its IPs bit
// for bit, and its Stats — every Lemma 4 skip and full evaluation counted
// where the row-at-a-time walk counts it. Breakdowns must be those of the
// store's own rows, bit for bit; Quantized on a store with no trained SQ8
// shadow must be the exact path; and an empty store answers every
// parameter set with nothing.
func TestBlockedSearchMatchesRowAtATime(t *testing.T) {
	type fixture struct {
		name string
		dims []int
		w    vec.Weights
		n    int
	}
	for _, fx := range []fixture{
		{"1 modality", []int{19}, vec.Weights{1}, 600},
		{"2 modalities", []int{24, 12}, vec.Weights{0.8, 0.5}, 900},
		{"3 modalities, tails", []int{13, 7, 21}, vec.Weights{0.7, 0.5, 0.4}, 700},
		{"zero-weight modality", []int{13, 7, 21}, vec.Weights{0.8, 0, 0.5}, 700},
		{"n < l", []int{24, 12}, vec.Weights{0.8, 0.5}, 37},
	} {
		rng := rand.New(rand.NewSource(int64(len(fx.name))))
		centers := make([]vec.Multi, 6)
		for c := range centers {
			centers[c] = make(vec.Multi, len(fx.dims))
			for m, d := range fx.dims {
				centers[c][m] = vec.RandUnit(rng, d)
			}
		}
		objects := make([]vec.Multi, fx.n)
		for i := range objects {
			c := centers[rng.Intn(len(centers))]
			objects[i] = make(vec.Multi, len(fx.dims))
			for m := range fx.dims {
				objects[i][m] = vec.AddGaussianNoise(rng, c[m], 0.7)
			}
		}
		st := vec.FlatFromMulti(objects)
		g, err := graph.Ours(12, 3, 5).Build(graph.NewFusedSpaceFromStore(st, fx.w))
		if err != nil {
			t.Fatal(err)
		}
		dead := make([]bool, fx.n)
		for i := range dead {
			dead[i] = i%7 == 3
		}
		odd := func(id int) bool { return id%2 == 1 }
		for pi, p := range []Params{
			{K: 10, L: 40, Optimize: true},
			{K: 10, L: 40, Optimize: false},
			{K: 5, L: 120, Optimize: true, Tombstones: dead, Filter: odd},
			{K: 10, L: 25, Optimize: true, Patience: 3},
			{K: 1, L: 1, Optimize: true},
			{K: 10, L: 60, Optimize: true, Weights: vec.Uniform(len(fx.dims))},
			{K: 5, L: 90, Optimize: true, Breakdown: true},
			{K: 10, L: 40, Optimize: true, Quantized: true},
		} {
			if got, _, err := NewFlat(graph.NewCSR(nil, 0), nil, fx.w).SearchParams(vec.Multi{}, p); err != nil || len(got) != 0 {
				t.Fatalf("%s, params %d: empty store gave %d results, err %v", fx.name, pi, len(got), err)
			}
			s := NewFlat(g, st, fx.w)
			for qi := 0; qi < 25; qi++ {
				q := make(vec.Multi, len(fx.dims))
				for m, d := range fx.dims {
					q[m] = vec.RandUnit(rng, d)
				}
				w := fx.w
				if p.Weights != nil {
					w = p.Weights
				}
				want, wantStats := referenceSearch(g, st, w, q, p)
				got, gotStats, err := s.SearchParams(q, p)
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s, params %d, query %d", fx.name, pi, qi)
				if gotStats != wantStats {
					t.Fatalf("%s: stats %+v, row-at-a-time %+v", at, gotStats, wantStats)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d results, row-at-a-time %d", at, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID || math.Float32bits(got[i].IP) != math.Float32bits(want[i].IP) {
						t.Fatalf("%s rank %d: (%d, %v), row-at-a-time (%d, %v)",
							at, i, got[i].ID, got[i].IP, want[i].ID, want[i].IP)
					}
					if !p.Breakdown {
						if got[i].PerModality != nil {
							t.Fatalf("%s rank %d: breakdown without Params.Breakdown", at, i)
						}
						continue
					}
					if len(got[i].PerModality) != len(fx.dims) {
						t.Fatalf("%s rank %d: %d breakdown entries", at, i, len(got[i].PerModality))
					}
					wantBD := Breakdown(w, q, st.Multi(got[i].ID))
					for m, x := range got[i].PerModality {
						if math.Float32bits(x) != math.Float32bits(wantBD[m]) {
							t.Fatalf("%s rank %d modality %d: breakdown %v, want %v", at, i, m, x, wantBD[m])
						}
					}
				}
			}
		}
	}
}
