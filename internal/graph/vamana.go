package graph

import "math/rand"

// VamanaConfig parameterizes the Vamana/DiskANN builder (Jayaram
// Subramanya et al., one of the §VIII-G competitors).
type VamanaConfig struct {
	// Gamma is the degree bound R.
	Gamma int
	// Beam is the construction search list size L.
	Beam int
	// Alpha is the RobustPrune distance-scale parameter for the second
	// pass (first pass uses α = 1).
	Alpha float32
	// Seed drives the random initial graph and insertion order.
	Seed int64
}

// BuildVamana constructs a Vamana graph: a random regular start, then two
// passes of greedy-search + RobustPrune with α = 1 and α = cfg.Alpha,
// adding pruned reverse edges along the way.
func BuildVamana(s *Space, cfg VamanaConfig) *Graph {
	n := s.Len()
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = 30
	}
	beam := cfg.Beam
	if beam <= 0 {
		beam = 2 * gamma
	}
	alpha := cfg.Alpha
	if alpha <= 1 {
		alpha = 1.2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	adj := RandomInit{Seed: cfg.Seed}.Init(s, gamma)
	medoid := s.Medoid()
	self := s.SelfIP()

	// robustPrune keeps at most gamma candidates, discarding any candidate
	// p whose distance to an already-kept p* satisfies α·d(p*,p) ≤ d(v,p).
	robustPrune := func(v int32, cands []int32, a float32) []int32 {
		ordered := sortByIP(s, v, cands)
		kept := make([]int32, 0, gamma)
		alive := make([]bool, len(ordered))
		for i := range alive {
			alive[i] = true
		}
		for i := 0; i < len(ordered) && len(kept) < gamma; i++ {
			if !alive[i] {
				continue
			}
			p := ordered[i]
			kept = append(kept, p.id)
			for j := i + 1; j < len(ordered); j++ {
				if !alive[j] {
					continue
				}
				q := ordered[j]
				dPQ := distFromIP(self, s.IP(p.id, q.id))
				dVQ := distFromIP(self, q.ip)
				if a*a*dPQ <= dVQ {
					alive[j] = false
				}
			}
		}
		return kept
	}

	order := rng.Perm(n)
	var route RouteScratch
	pass := func(a float32) {
		for _, vi := range order {
			v := int32(vi)
			visited := route.vertex(s, adj, medoid, v, beam)
			cands := make([]int32, 0, len(visited)+len(adj[v]))
			for _, u := range visited {
				if u != v {
					cands = append(cands, u)
				}
			}
			cands = append(cands, adj[v]...)
			adj[v] = robustPrune(v, cands, a)
			// Reverse edges with pruning on overflow.
			for _, u := range adj[v] {
				lst := adj[u]
				present := false
				for _, w := range lst {
					if w == v {
						present = true
						break
					}
				}
				if present {
					continue
				}
				lst = append(lst, v)
				if len(lst) > gamma {
					lst = robustPrune(u, lst, a)
				}
				adj[u] = lst
			}
		}
	}
	pass(1)
	pass(alpha)

	return NewCSR(adj, medoid)
}
