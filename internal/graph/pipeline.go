package graph

import (
	"fmt"
	"math/rand"
)

// Pipeline assembles the five components of Algorithm 1 into an index
// builder. Re-assembling components from different published graphs is how
// the paper both implements its competitors and derives its own optimized
// index (§VII-A, §VIII-G).
type Pipeline struct {
	// Name labels the assembly in reports (e.g. "Ours", "KGraph").
	Name string
	// Gamma is the maximum out-degree γ (default 30, Appendix H).
	Gamma int
	// Init, Candidates, Select, Seed, Connect are the five components.
	Init       Initializer
	Candidates CandidateAcquirer
	Select     Selector
	Seed       SeedStrategy
	Connect    Connectivity
	// RandSeed drives any randomized component decisions.
	RandSeed int64
	// AfterSeal, when set, runs after the adjacency is sealed into its
	// CSR form but before Build returns. The index layer uses it to train
	// the SQ8 quantizer over the finished corpus while the build still
	// owns the store (so quantizer training is accounted to build time,
	// not to the first search).
	AfterSeal func()
}

func (p Pipeline) validate() error {
	if p.Init == nil || p.Candidates == nil || p.Select == nil || p.Seed == nil || p.Connect == nil {
		return fmt.Errorf("graph: pipeline %q is missing components", p.Name)
	}
	if p.Gamma <= 0 {
		return fmt.Errorf("graph: pipeline %q has non-positive gamma", p.Name)
	}
	return nil
}

// Build runs the pipeline over the space and returns the finished graph.
func (p Pipeline) Build(s *Space) (*Graph, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if s.Len() == 0 {
		return nil, fmt.Errorf("graph: pipeline %q: empty space", p.Name)
	}
	rng := rand.New(rand.NewSource(p.RandSeed))

	// ① Initialization.
	initial := p.Init.Init(s, p.Gamma)

	// Resolve a deferred routing seed for search-based acquisition before
	// the parallel stage so the medoid is computed once.
	if sc, ok := p.Candidates.(SearchCandidates); ok && sc.SeedVertex < 0 {
		sc.SeedVertex = s.Medoid()
		p.Candidates = sc
	}

	// ② Candidate acquisition + ③ neighbor selection, fused per vertex so
	// candidate buffers stay worker-local.
	final := make([][]int32, s.Len())
	runWorkers(workerCount(), s.Len(), func(int) func(v int) {
		scratch := new(candScratch)
		return func(v int) {
			cands := p.Candidates.Candidates(s, initial, int32(v), scratch)
			final[v] = p.Select.Select(s, int32(v), cands, p.Gamma)
		}
	})

	// ④ Seed preprocessing.
	seed := p.Seed.Seed(s, rng)

	// ⑤ Connectivity.
	p.Connect.Ensure(s, final, seed)

	// Seal the working adjacency into the canonical CSR form; the
	// per-vertex lists are garbage from here on.
	g := NewCSR(final, seed)
	if p.AfterSeal != nil {
		p.AfterSeal()
	}
	return g, nil
}

// ComponentSummary renders the assembly, e.g.
// "NNDescent→NoN→MRNG→Centroid→BFS".
func (p Pipeline) ComponentSummary() string {
	return fmt.Sprintf("%s→%s→%s→%s→%s",
		p.Init.InitName(), p.Candidates.CandidateName(), p.Select.SelectName(),
		p.Seed.SeedName(), p.Connect.ConnectName())
}

// ---------------------------------------------------------------------------
// Named assemblies (§VIII-G): the paper's fused index plus the component
// re-assemblies of KGraph, NSG and NSSG.

// Ours is the paper's optimized assembly: NNDescent initialization,
// neighbors-of-neighbors candidates, MRNG selection, centroid seed, BFS
// connectivity (Algorithm 1 as printed).
func Ours(gamma, iters int, seed int64) Pipeline {
	return Pipeline{
		Name:       "Ours",
		Gamma:      gamma,
		Init:       NNDescent{Iters: iters, Seed: seed},
		Candidates: NeighborsOfNeighbors{},
		Select:     MRNG{},
		Seed:       CentroidSeed{},
		Connect:    BFSRepair{},
		RandSeed:   seed,
	}
}

// KGraphAssembly re-assembles KGraph: NNDescent with plain top-γ neighbor
// lists, no diversification, random seed, no connectivity repair.
func KGraphAssembly(gamma, iters int, seed int64) Pipeline {
	return Pipeline{
		Name:       "KGraph",
		Gamma:      gamma,
		Init:       NNDescent{Iters: iters, Seed: seed},
		Candidates: NeighborsOfNeighbors{},
		Select:     TopK{},
		Seed:       RandomSeed{},
		Connect:    NoConnectivity{},
		RandSeed:   seed,
	}
}

// NSGAssembly re-assembles NSG: NNDescent initialization, search-based
// candidate acquisition from the medoid, MRNG selection, centroid seed and
// connectivity repair.
func NSGAssembly(gamma, iters, beam int, seed int64) Pipeline {
	return Pipeline{
		Name:       "NSG",
		Gamma:      gamma,
		Init:       NNDescent{Iters: iters, Seed: seed},
		Candidates: SearchCandidates{Beam: beam, SeedVertex: -1},
		Select:     MRNG{},
		Seed:       CentroidSeed{},
		Connect:    BFSRepair{},
		RandSeed:   seed,
	}
}

// NSSGAssembly re-assembles NSSG: NNDescent initialization,
// neighbors-of-neighbors expansion, angle-based selection (min 60°),
// random seed and connectivity repair.
func NSSGAssembly(gamma, iters int, seed int64) Pipeline {
	return Pipeline{
		Name:       "NSSG",
		Gamma:      gamma,
		Init:       NNDescent{Iters: iters, Seed: seed},
		Candidates: NeighborsOfNeighbors{},
		Select:     AngleSelector{MinCos: 0.5},
		Seed:       RandomSeed{},
		Connect:    BFSRepair{},
		RandSeed:   seed,
	}
}
