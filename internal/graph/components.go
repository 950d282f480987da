package graph

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// The five fine-grained components of the index-construction pipeline
// (Algorithm 1, §VII-A). Any proximity graph decomposable into these
// components can be re-assembled on the pipeline; the paper's "Ours" index
// is NNDescent initialization + neighbors-of-neighbors candidates + MRNG
// selection + centroid seed + BFS connectivity.

// Initializer builds the initial neighbor lists (component ①).
type Initializer interface {
	// Init returns an initial adjacency with at most gamma neighbors per
	// vertex.
	Init(s *Space, gamma int) [][]int32
	// InitName labels the component in reports.
	InitName() string
}

// CandidateAcquirer produces candidate final neighbors per vertex from the
// initial graph (component ②).
type CandidateAcquirer interface {
	// Candidates returns candidate neighbor IDs for vertex v, excluding v
	// itself. The returned slice may be in any order and may contain no
	// duplicates.
	Candidates(s *Space, adj [][]int32, v int32, scratch *candScratch) []int32
	// CandidateName labels the component in reports.
	CandidateName() string
}

// Selector filters candidates into the final neighbor list (component ③).
type Selector interface {
	// Select returns the final neighbors of v, at most gamma of them,
	// chosen from cands.
	Select(s *Space, v int32, cands []int32, gamma int) []int32
	// SelectName labels the component in reports.
	SelectName() string
}

// SeedStrategy chooses the fixed search entry point (component ④).
type SeedStrategy interface {
	Seed(s *Space, rng *rand.Rand) int32
	SeedName() string
}

// Connectivity post-processes the graph so every vertex is reachable from
// the seed (component ⑤).
type Connectivity interface {
	// Ensure may add edges to adj in place.
	Ensure(s *Space, adj [][]int32, seed int32)
	// ConnectName labels the component in reports.
	ConnectName() string
}

// ---------------------------------------------------------------------------
// Component ①: initialization.

// NNDescent iteratively refines random neighbor lists by joining
// neighbors-of-neighbors (Algorithm 1, lines 2–8), augmented with the
// classic reverse-edge join that NNDescent uses to accelerate convergence.
// Iters is the ε of the paper (default 3, Tab. XI).
type NNDescent struct {
	// Iters is the maximum number of refinement iterations ε.
	Iters int
	// Seed drives the random initial lists.
	Seed int64
}

// InitName implements Initializer.
func (d NNDescent) InitName() string { return "NNDescent" }

// Init implements Initializer.
func (d NNDescent) Init(s *Space, gamma int) [][]int32 {
	n := s.Len()
	iters := d.Iters
	if iters <= 0 {
		iters = 3
	}
	// Initial random lists, split so the expensive part parallelizes
	// without perturbing the output: the candidate IDs are drawn from one
	// sequential RNG (bit-identical to a fully serial build — a duplicate
	// or self draw consumes exactly one RNG value either way), then the
	// inner products and sorted-list construction run across workers, each
	// owning its vertex's list.
	rng := rand.New(rand.NewSource(d.Seed))
	draws := make([][]int32, n)
	for v := 0; v < n; v++ {
		want := gamma
		if want > n-1 {
			want = n - 1
		}
		picked := draws[v][:0]
	draw:
		for len(picked) < want {
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
		draws[v] = picked
	}
	// Every stage below has the same shape: gather vertex v's candidates,
	// score them all against v in one Space.IPs call (four rows per
	// kernel call instead of one), then offer them to v's list in the
	// gathered order. The gather drops repeats (neighbours share
	// neighbours) and v's current neighbours, which cannot change the
	// list: it rejects a duplicate, and a pair it once rejected, inserted
	// or evicted is at or below its worst IP from then on, which only
	// rises. offer returns how many candidates the list took.
	offer := func(v int, l *neighborList, cands []int32, sc *candScratch) int64 {
		sc.ips = slices.Grow(sc.ips[:0], len(cands))[:len(cands)]
		s.IPs(int32(v), cands, sc.ips)
		var took int64
		for i, u := range cands {
			if l.insert(u, sc.ips[i]) {
				took++
			}
		}
		return took
	}
	// One scratch per build worker, shared by every stage and iteration.
	workers := workerCount()
	scs := make([]candScratch, workers)
	stage := func(visit func(v int, sc *candScratch)) {
		runWorkers(workers, n, func(w int) func(v int) {
			return func(v int) { visit(v, &scs[w]) }
		})
	}
	lists := make([]*neighborList, n)
	stage(func(v int, sc *candScratch) {
		lists[v] = newNeighborList(gamma)
		offer(v, lists[v], draws[v], sc)
	})

	for iter := 0; iter < iters; iter++ {
		// Snapshot the current lists so the forward join is deterministic
		// under parallelism: every worker reads the snapshot and writes
		// only its own vertex's list.
		snapshot := make([][]int32, n)
		for v := range lists {
			snapshot[v] = append([]int32(nil), lists[v].ids...)
		}
		var changed atomic.Int64
		// join offers gather(v)'s candidates, minus v and v's current
		// neighbours, to every vertex's list.
		join := func(gather func(v int, sc *candScratch)) {
			stage(func(v int, sc *candScratch) {
				sc.reset(n)
				sc.see(int32(v))
				for _, u := range lists[v].ids {
					sc.see(u)
				}
				gather(v, sc)
				changed.Add(offer(v, lists[v], sc.out, sc))
			})
		}
		join(func(v int, sc *candScratch) {
			for _, nb := range snapshot[v] {
				for _, u := range snapshot[nb] {
					sc.add(u)
				}
			}
		})
		// Reverse join: offer each directed edge's source to its target.
		// Built single-threaded (cheap), applied per owner in parallel.
		rev := make([][]int32, n)
		for v := 0; v < n; v++ {
			for _, u := range lists[v].ids {
				rev[u] = append(rev[u], int32(v))
			}
		}
		join(func(v int, sc *candScratch) {
			for _, u := range rev[v] {
				sc.add(u)
			}
		})
		if changed.Load() == 0 {
			break
		}
	}

	adj := make([][]int32, n)
	for v := range lists {
		adj[v] = lists[v].ids
	}
	return adj
}

// RandomInit assigns gamma random neighbors per vertex; the degenerate
// baseline initializer.
type RandomInit struct {
	Seed int64
}

// InitName implements Initializer.
func (RandomInit) InitName() string { return "Random" }

// Init implements Initializer.
func (r RandomInit) Init(s *Space, gamma int) [][]int32 {
	n := s.Len()
	rng := rand.New(rand.NewSource(r.Seed))
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		l := newNeighborList(gamma)
		for len(l.ids) < gamma && len(l.ids) < n-1 {
			u := int32(rng.Intn(n))
			if u != int32(v) {
				l.insert(u, s.IP(int32(v), u))
			}
		}
		adj[v] = l.ids
	}
	return adj
}

// ---------------------------------------------------------------------------
// Component ②: candidate acquisition.

// candScratch holds reusable per-worker buffers for candidate expansion:
// out collects distinct vertex IDs in first-seen order.
type candScratch struct {
	epochMarks
	out   []int32
	ips   []float32    // NNDescent: IPs of out against the joined vertex
	route RouteScratch // SearchCandidates' beam search
}

// reset empties out and forgets every seen ID of a space of n vertices.
func (c *candScratch) reset(n int) {
	c.epochMarks.reset(n)
	c.out = c.out[:0]
}

func (c *candScratch) add(id int32) {
	if c.see(id) {
		c.out = append(c.out, id)
	}
}

// NeighborsOfNeighbors gathers each vertex's initial neighbors and their
// neighbors (Algorithm 1, lines 9–10).
type NeighborsOfNeighbors struct{}

// CandidateName implements CandidateAcquirer.
func (NeighborsOfNeighbors) CandidateName() string { return "NoN" }

// Candidates implements CandidateAcquirer.
func (NeighborsOfNeighbors) Candidates(s *Space, adj [][]int32, v int32, scratch *candScratch) []int32 {
	scratch.reset(len(adj))
	for _, nb := range adj[v] {
		if nb != v {
			scratch.add(nb)
		}
		for _, u := range adj[nb] {
			if u != v {
				scratch.add(u)
			}
		}
	}
	return scratch.out
}

// SearchCandidates routes a beam search from the seed toward each vertex
// and uses the visited set as candidates — the NSG-style acquisition.
type SearchCandidates struct {
	// Beam is the search beam width (NSG's L); candidates are the visited
	// vertices of the search.
	Beam int
	// SeedVertex is the routing start; Medoid of the space if negative.
	SeedVertex int32
}

// CandidateName implements CandidateAcquirer.
func (SearchCandidates) CandidateName() string { return "Search" }

// Candidates implements CandidateAcquirer.
func (c SearchCandidates) Candidates(s *Space, adj [][]int32, v int32, scratch *candScratch) []int32 {
	seed := c.SeedVertex
	if seed < 0 {
		seed = 0
	}
	visited := scratch.route.vertex(s, adj, seed, v, c.Beam)
	scratch.reset(len(adj))
	for _, u := range visited {
		if u != v {
			scratch.add(u)
		}
	}
	// Also keep the initial neighbors: the search may not revisit them.
	for _, u := range adj[v] {
		if u != v {
			scratch.add(u)
		}
	}
	return scratch.out
}

// ---------------------------------------------------------------------------
// Component ③: neighbor selection.

// MRNG applies the monotonic relative neighborhood rule of Algorithm 1,
// lines 11–17: a candidate v joins N(o) only if it is closer to o than to
// every already-selected neighbor (IP(ô,v̂) > IP(û,v̂)), which yields the
// ≥60° angular spread of Lemma 2.
type MRNG struct{}

// SelectName implements Selector.
func (MRNG) SelectName() string { return "MRNG" }

// Select implements Selector.
func (MRNG) Select(s *Space, v int32, cands []int32, gamma int) []int32 {
	ordered := sortByIP(s, v, cands)
	out := make([]int32, 0, gamma)
	for _, c := range ordered {
		if len(out) >= gamma {
			break
		}
		if !occludes(s, out, c) {
			out = append(out, c.id)
		}
	}
	return out
}

// occludes reports whether any selected neighbour is at least as close to
// candidate c as c's own vertex is (IP(u,c) >= IP(v,c)). The selected set
// is scored against c four at a time; the answer is an OR over it, so a
// block that looks past the first occluder cannot change it.
func occludes(s *Space, selected []int32, c ipCand) bool {
	var ips [4]float32
	for len(selected) > 0 {
		blk := selected[:min(len(ips), len(selected))]
		selected = selected[len(blk):]
		s.IPs(c.id, blk, ips[:])
		for _, ip := range ips[:len(blk)] {
			if ip >= c.ip {
				return true
			}
		}
	}
	return false
}

// TopK keeps the gamma closest candidates with no diversification — the
// KGraph-style selector.
type TopK struct{}

// SelectName implements Selector.
func (TopK) SelectName() string { return "TopK" }

// Select implements Selector.
func (TopK) Select(s *Space, v int32, cands []int32, gamma int) []int32 {
	ordered := sortByIP(s, v, cands)
	if len(ordered) > gamma {
		ordered = ordered[:gamma]
	}
	out := make([]int32, len(ordered))
	for i, c := range ordered {
		out[i] = c.id
	}
	return out
}

// AngleSelector keeps a candidate only if the angle it forms at v with
// every selected neighbor is at least MinCos⁻¹ — the NSSG-style relaxed
// diversification. MinCos is the cosine of the minimum allowed angle
// (NSSG's default ~60° → 0.5).
type AngleSelector struct {
	MinCos float32
}

// SelectName implements Selector.
func (AngleSelector) SelectName() string { return "Angle" }

// Select implements Selector.
func (a AngleSelector) Select(s *Space, v int32, cands []int32, gamma int) []int32 {
	minCos := a.MinCos
	if minCos == 0 {
		minCos = 0.5
	}
	ordered := sortByIP(s, v, cands)
	self := s.SelfIP()
	out := make([]int32, 0, gamma)
	for _, c := range ordered {
		if len(out) >= gamma {
			break
		}
		dVC := distFromIP(self, c.ip)
		ok := true
		for _, u := range out {
			dVU := distFromIP(self, s.IP(v, u))
			dUC := distFromIP(self, s.IP(u, c.id))
			// cos ∠(c, v, u) from the law of cosines on squared
			// distances: cos = (dVC + dVU − dUC) / (2·√(dVC·dVU)).
			denom := 2 * sqrt32(dVC*dVU)
			if denom <= 0 {
				ok = false
				break
			}
			cos := (dVC + dVU - dUC) / denom
			if cos > minCos {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c.id)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Component ④: seed preprocessing.

// CentroidSeed picks the vertex nearest the dataset centroid (Algorithm 1,
// line 18).
type CentroidSeed struct{}

// SeedName implements SeedStrategy.
func (CentroidSeed) SeedName() string { return "Centroid" }

// Seed implements SeedStrategy.
func (CentroidSeed) Seed(s *Space, _ *rand.Rand) int32 { return s.Medoid() }

// RandomSeed picks a uniformly random vertex.
type RandomSeed struct{}

// SeedName implements SeedStrategy.
func (RandomSeed) SeedName() string { return "Random" }

// Seed implements SeedStrategy.
func (RandomSeed) Seed(s *Space, rng *rand.Rand) int32 { return int32(rng.Intn(s.Len())) }

// ---------------------------------------------------------------------------
// Component ⑤: connectivity.

// BFSRepair breadth-first-searches from the seed and, whenever unreached
// vertices remain, connects the nearest reached vertex to one of them and
// resumes (Algorithm 1, line 19).
type BFSRepair struct{}

// ConnectName implements Connectivity.
func (BFSRepair) ConnectName() string { return "BFS" }

// Ensure implements Connectivity.
func (BFSRepair) Ensure(s *Space, adj [][]int32, seed int32) {
	n := len(adj)
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	push := func(v int32) {
		visited[v] = true
		queue = append(queue, v)
	}
	push(seed)
	for head := 0; ; {
		for head < len(queue) {
			v := queue[head]
			head++
			for _, u := range adj[v] {
				if !visited[u] {
					push(u)
				}
			}
		}
		if len(queue) == n {
			return
		}
		// Pick the first unvisited vertex and bridge to it from its
		// nearest visited vertex.
		var orphan int32 = -1
		for v := 0; v < n; v++ {
			if !visited[v] {
				orphan = int32(v)
				break
			}
		}
		best := seed
		bestIP := float32(-1 << 30)
		for _, v := range queue {
			if ip := s.IP(v, orphan); ip > bestIP {
				bestIP = ip
				best = v
			}
		}
		adj[best] = append(adj[best], orphan)
		push(orphan)
	}
}

// NoConnectivity leaves the graph as-is (KGraph has no repair step).
type NoConnectivity struct{}

// ConnectName implements Connectivity.
func (NoConnectivity) ConnectName() string { return "None" }

// Ensure implements Connectivity.
func (NoConnectivity) Ensure(*Space, [][]int32, int32) {}

// ---------------------------------------------------------------------------
// Shared helpers.

type ipCand struct {
	id int32
	ip float32
}

// sortByIP returns cands with their IPs to v, sorted by descending IP.
func sortByIP(s *Space, v int32, cands []int32) []ipCand {
	out := make([]ipCand, 0, len(cands))
	var ips [64]float32
	for len(cands) > 0 {
		blk := cands[:min(len(ips), len(cands))]
		cands = cands[len(blk):]
		s.IPs(v, blk, ips[:])
		for i, c := range blk {
			if c != v {
				out = append(out, ipCand{c, ips[i]})
			}
		}
	}
	slices.SortFunc(out, func(a, b ipCand) int {
		if a.ip != b.ip {
			return cmp.Compare(b.ip, a.ip)
		}
		return cmp.Compare(a.id, b.id) // deterministic tie-break
	})
	return out
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(x)))
}

// buildWorkers overrides the worker count of every parallel build stage;
// 0 means GOMAXPROCS. It exists so tests can pin the build to one worker
// and assert that parallel and sequential construction produce identical
// graphs (every parallel stage writes only vertex-owned state, so the
// output is worker-count-independent by design).
var buildWorkers atomic.Int32

// SetBuildWorkers caps the number of workers used by graph construction
// (0 restores the GOMAXPROCS default) and returns the previous setting.
// It applies process-wide to subsequent builds; builds already running are
// unaffected.
func SetBuildWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(buildWorkers.Swap(int32(n)))
}

// workerCount is how many workers a parallel build stage runs on:
// GOMAXPROCS, or the SetBuildWorkers override.
func workerCount() int {
	if w := int(buildWorkers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// parallelVertices runs fn(v) for every vertex across workerCount()
// workers, chunked to amortize scheduling.
func parallelVertices(n int, fn func(v int)) {
	runWorkers(workerCount(), n, func(int) func(v int) { return fn })
}

// runWorkers is parallelVertices for stages whose workers each own
// scratch state: at most workers workers share the n vertices, and worker
// w (0 ≤ w < workers) calls newWorker(w) once and runs the function it
// returns on its share. A caller that fixes workers across several stages
// can keep per-worker state indexed by w between them.
func runWorkers(workers, n int, newWorker func(w int) func(v int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn := newWorker(0)
		for v := 0; v < n; v++ {
			fn(v)
		}
		return
	}
	const chunk = 64
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn := newWorker(w)
			for {
				start := int(atomic.AddInt64(&next, chunk)) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for v := start; v < end; v++ {
					fn(v)
				}
			}
		}()
	}
	wg.Wait()
}
