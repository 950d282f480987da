package graph

import (
	"math/rand"
	"testing"

	"must/internal/vec"
)

// testSpace builds a clustered unit-vector space: clumpy data is what
// proximity graphs are designed for and keeps quality assertions
// meaningful.
func testSpace(n, dim, clusters int, seed int64) *Space {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, clusters)
	for i := range centers {
		centers[i] = vec.RandUnit(rng, dim)
	}
	data := make([][]float32, n)
	for i := range data {
		data[i] = vec.AddGaussianNoise(rng, centers[rng.Intn(clusters)], 0.6)
	}
	return NewSpace(data)
}

func exactTopK(s *Space, v int32, k int) map[int32]struct{} {
	l := newNeighborList(k)
	for u := 0; u < s.Len(); u++ {
		if int32(u) != v {
			l.insert(int32(u), s.IP(v, int32(u)))
		}
	}
	out := make(map[int32]struct{}, len(l.ids))
	for _, id := range l.ids {
		out[id] = struct{}{}
	}
	return out
}

func TestNeighborList(t *testing.T) {
	l := newNeighborList(3)
	if !l.insert(1, 0.5) || !l.insert(2, 0.9) || !l.insert(3, 0.1) {
		t.Fatal("inserts into empty list failed")
	}
	if l.insert(2, 0.9) {
		t.Error("duplicate insert succeeded")
	}
	if l.insert(4, 0.05) {
		t.Error("insert below worst into full list succeeded")
	}
	if !l.insert(5, 0.7) {
		t.Error("insert above worst into full list failed")
	}
	// Expect ids sorted by IP desc: 2 (0.9), 5 (0.7), 1 (0.5).
	want := []int32{2, 5, 1}
	for i, id := range l.ids {
		if id != want[i] {
			t.Fatalf("ids = %v, want %v", l.ids, want)
		}
	}
	for i := 1; i < len(l.ips); i++ {
		if l.ips[i] > l.ips[i-1] {
			t.Fatal("ips not sorted descending")
		}
	}
}

func TestSpaceBasics(t *testing.T) {
	s := testSpace(50, 16, 3, 1)
	if s.Len() != 50 || s.Dim() != 16 {
		t.Fatalf("Len=%d Dim=%d", s.Len(), s.Dim())
	}
	if ip := s.IP(3, 3); ip < 0.999 || ip > 1.001 {
		t.Errorf("self IP = %v, want 1 for unit vectors", ip)
	}
	med := s.Medoid()
	if med < 0 || int(med) >= s.Len() {
		t.Fatalf("medoid %d out of range", med)
	}
	// The medoid maximizes IP to the centroid.
	c := s.Centroid()
	for i := 0; i < s.Len(); i++ {
		if s.IPTo(int32(i), c) > s.IPTo(med, c)+1e-6 {
			t.Fatalf("vertex %d beats medoid", i)
		}
	}
}

func TestNewFusedSpaceMatchesWeightedConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objs := make([]vec.Multi, 10)
	for i := range objs {
		objs[i] = vec.Multi{vec.RandUnit(rng, 8), vec.RandUnit(rng, 4)}
	}
	w := vec.Weights{0.8, 0.33}
	s := NewFusedSpaceFromStore(vec.FlatFromMulti(objs), w)
	if s.Dim() != 12 {
		t.Fatalf("fused dim = %d, want 12", s.Dim())
	}
	wantSelf := float64(w.SumSquared())
	if got := float64(s.SelfIP()); got < wantSelf-1e-3 || got > wantSelf+1e-3 {
		t.Errorf("SelfIP = %v, want %v", got, wantSelf)
	}
	got := s.IP(0, 1)
	want := vec.JointIP(w, objs[0], objs[1])
	if d := got - want; d > 1e-4 || d < -1e-4 {
		t.Errorf("fused IP = %v, joint IP = %v", got, want)
	}
}

func TestNNDescentQuality(t *testing.T) {
	s := testSpace(800, 16, 8, 3)
	const gamma = 10
	adj := NNDescent{Iters: 4, Seed: 1}.Init(s, gamma)
	// Measure fraction of exact top-γ recovered.
	var qual float64
	for v := 0; v < 100; v++ {
		truth := exactTopK(s, int32(v), gamma)
		hits := 0
		for _, u := range adj[v] {
			if _, ok := truth[u]; ok {
				hits++
			}
		}
		qual += float64(hits) / float64(gamma)
	}
	qual /= 100
	if qual < 0.85 {
		t.Errorf("NNDescent quality = %v, want >= 0.85 (Tab. XI regime)", qual)
	}
}

func TestNNDescentQualityImprovesWithIterations(t *testing.T) {
	s := testSpace(600, 16, 6, 4)
	const gamma = 10
	qual := func(iters int) float64 {
		adj := NNDescent{Iters: iters, Seed: 1}.Init(s, gamma)
		g := NewCSR(adj, 0)
		return Quality(g, s, gamma, 80)
	}
	q1, q3 := qual(1), qual(3)
	if q3 < q1 {
		t.Errorf("quality decreased with iterations: q1=%v q3=%v", q1, q3)
	}
	if q3 < 0.8 {
		t.Errorf("q3 = %v, want >= 0.8", q3)
	}
}

func TestMRNGAngleProperty(t *testing.T) {
	// Lemma 2: any two selected neighbors subtend an angle ≥ 60° at the
	// vertex. Verify via the law of cosines on a real selection.
	s := testSpace(400, 12, 4, 5)
	adj := NNDescent{Iters: 3, Seed: 2}.Init(s, 20)
	scratch := new(candScratch)
	self := s.SelfIP()
	for v := int32(0); v < 50; v++ {
		cands := NeighborsOfNeighbors{}.Candidates(s, adj, v, scratch)
		sel := MRNG{}.Select(s, v, cands, 10)
		for i := 0; i < len(sel); i++ {
			for j := i + 1; j < len(sel); j++ {
				dVU := distFromIP(self, s.IP(v, sel[i]))
				dVW := distFromIP(self, s.IP(v, sel[j]))
				dUW := distFromIP(self, s.IP(sel[i], sel[j]))
				denom := 2 * sqrt32(dVU*dVW)
				if denom <= 0 {
					continue
				}
				cos := (dVU + dVW - dUW) / denom
				if cos > 0.5+1e-3 { // cos 60° = 0.5
					t.Fatalf("vertex %d: neighbors %d,%d subtend cos=%v > 0.5", v, sel[i], sel[j], cos)
				}
			}
		}
	}
}

func TestTopKSelector(t *testing.T) {
	s := testSpace(100, 8, 2, 6)
	cands := make([]int32, 0, 99)
	for u := int32(1); u < 100; u++ {
		cands = append(cands, u)
	}
	sel := TopK{}.Select(s, 0, cands, 5)
	if len(sel) != 5 {
		t.Fatalf("TopK selected %d, want 5", len(sel))
	}
	truth := exactTopK(s, 0, 5)
	for _, u := range sel {
		if _, ok := truth[u]; !ok {
			t.Errorf("TopK selected %d, not in exact top-5", u)
		}
	}
}

func TestSelectorsExcludeSelf(t *testing.T) {
	s := testSpace(50, 8, 2, 7)
	cands := []int32{0, 1, 2, 3}
	for _, sel := range []Selector{MRNG{}, TopK{}, AngleSelector{}} {
		out := sel.Select(s, 0, cands, 10)
		for _, u := range out {
			if u == 0 {
				t.Errorf("%s selected self", sel.SelectName())
			}
		}
	}
}

func TestBFSRepairConnects(t *testing.T) {
	s := testSpace(60, 8, 2, 8)
	// Build a deliberately disconnected graph: two halves with no edges
	// between them.
	adj := make([][]int32, 60)
	for v := 0; v < 30; v++ {
		adj[v] = []int32{int32((v + 1) % 30)}
	}
	for v := 30; v < 60; v++ {
		adj[v] = []int32{int32(30 + (v-30+1)%30)}
	}
	if g := NewCSR(adj, 0); g.Reachable() == 60 {
		t.Fatal("test setup: graph should be disconnected")
	}
	// Repair operates on the pre-seal working adjacency, as in Build.
	BFSRepair{}.Ensure(s, adj, 0)
	if got := NewCSR(adj, 0).Reachable(); got != 60 {
		t.Errorf("after repair reachable = %d, want 60", got)
	}
}

func TestPipelineBuildOurs(t *testing.T) {
	s := testSpace(500, 16, 5, 9)
	p := Ours(15, 3, 42)
	g, err := p.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 500 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.Reachable() != 500 {
		t.Errorf("reachable = %d, want 500 (connectivity component)", g.Reachable())
	}
	if g.MaxDegree() > 15+1 { // +1: connectivity repair may add one edge
		t.Errorf("max degree = %d exceeds γ", g.MaxDegree())
	}
	// MRNG diversification deliberately trades top-γ overlap for angular
	// spread, so quality is well below a kNN graph's but must stay sane.
	if q := Quality(g, s, 10, 60); q < 0.3 {
		t.Errorf("graph quality = %v, too low", q)
	}
	if p.ComponentSummary() != "NNDescent→NoN→MRNG→Centroid→BFS" {
		t.Errorf("summary = %q", p.ComponentSummary())
	}
}

func TestPipelineValidation(t *testing.T) {
	s := testSpace(10, 4, 1, 10)
	if _, err := (Pipeline{Name: "broken", Gamma: 5}).Build(s); err == nil {
		t.Error("missing components did not error")
	}
	p := Ours(0, 3, 1)
	if _, err := p.Build(s); err == nil {
		t.Error("gamma=0 did not error")
	}
}

func TestAssembliesBuildAndAreSearchable(t *testing.T) {
	s := testSpace(400, 12, 4, 11)
	assemblies := []Pipeline{
		Ours(12, 3, 1),
		KGraphAssembly(12, 3, 1),
		NSGAssembly(12, 3, 30, 1),
		NSSGAssembly(12, 3, 1),
	}
	for _, p := range assemblies {
		g, err := p.Build(s)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if g.NumVertices() != 400 {
			t.Fatalf("%s: vertices = %d", p.Name, g.NumVertices())
		}
		if g.AvgDegree() <= 0 {
			t.Errorf("%s: no edges", p.Name)
		}
		// The beam search over the built graph should find a vertex's own
		// position: route toward vertex 7 and expect to visit it.
		visited := new(RouteScratch).graph(s, g, g.Seed, s.Vector(7), 20)
		found := false
		for _, u := range visited {
			if u == 7 {
				found = true
				break
			}
		}
		if !found && p.Name != "KGraph" { // KGraph has no connectivity guarantee
			t.Errorf("%s: beam search failed to reach target vertex", p.Name)
		}
	}
}

func TestBuildHNSW(t *testing.T) {
	s := testSpace(500, 12, 5, 12)
	g := BuildHNSW(s, HNSWConfig{M: 8, EfConstruction: 60, Seed: 1})
	if g.NumVertices() != 500 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.MaxDegree() > 16 {
		t.Errorf("layer-0 degree %d exceeds 2M", g.MaxDegree())
	}
	if r := g.Reachable(); r < 450 {
		t.Errorf("reachable = %d, want near 500", r)
	}
}

func TestBuildVamana(t *testing.T) {
	s := testSpace(400, 12, 4, 13)
	g := BuildVamana(s, VamanaConfig{Gamma: 12, Beam: 30, Alpha: 1.2, Seed: 1})
	if g.NumVertices() != 400 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.MaxDegree() > 12 {
		t.Errorf("degree %d exceeds R", g.MaxDegree())
	}
	if r := g.Reachable(); r < 360 {
		t.Errorf("reachable = %d, want near 400", r)
	}
}

func TestBuildHCNNG(t *testing.T) {
	s := testSpace(400, 12, 4, 14)
	g := BuildHCNNG(s, HCNNGConfig{Rounds: 3, LeafSize: 50, MaxDegree: 20, Seed: 1})
	if g.NumVertices() != 400 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.Reachable() != 400 {
		t.Errorf("reachable = %d, want 400 (HCNNG repairs connectivity)", g.Reachable())
	}
	if g.MaxDegree() > 21 {
		t.Errorf("degree %d exceeds cap", g.MaxDegree())
	}
}

func TestGraphStats(t *testing.T) {
	g := NewCSR([][]int32{{1, 2}, {0}, {}}, 0)
	if g.NumEdges() != 3 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	if g.AvgDegree() != 1 {
		t.Errorf("avg degree = %v", g.AvgDegree())
	}
	if g.MaxDegree() != 2 {
		t.Errorf("max degree = %d", g.MaxDegree())
	}
	if g.SizeBytes() <= 0 {
		t.Error("size must be positive")
	}
	if g.Reachable() != 3 {
		t.Errorf("reachable = %d", g.Reachable())
	}
}

func TestQualityPerfectGraph(t *testing.T) {
	s := testSpace(120, 8, 2, 15)
	const gamma = 6
	adj := make([][]int32, s.Len())
	for v := range adj {
		truth := exactTopK(s, int32(v), gamma)
		for u := range truth {
			adj[v] = append(adj[v], u)
		}
	}
	g := NewCSR(adj, 0)
	if q := Quality(g, s, gamma, 0); q < 0.999 {
		t.Errorf("perfect graph quality = %v, want 1", q)
	}
}

func TestBuildDeterminism(t *testing.T) {
	s := testSpace(300, 12, 3, 16)
	build := func() *Graph {
		g, err := Ours(10, 3, 99).Build(s)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := build(), build()
	if a.Seed != b.Seed {
		t.Fatal("seeds differ between identical builds")
	}
	if !graphsEqual(a, b) {
		t.Fatal("identical builds produced different adjacency")
	}
}

// A released store-backed space must agree with its materialized form on
// every similarity primitive: the lazy per-modality path is what
// incremental inserts route through once the fused build buffer is gone.
func TestStoreViewMatchesMaterializedSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := make([]vec.Multi, 40)
	for i := range objs {
		objs[i] = vec.Multi{vec.RandUnit(rng, 16), vec.RandUnit(rng, 6), vec.RandUnit(rng, 10)}
	}
	w := vec.Weights{0.7, 0.5, 0.3}
	st := vec.FlatFromMulti(objs)
	mat := NewFusedSpaceFromStore(st, w)
	lazy := StoreView(st, w)
	if mat.FusedBytes() == 0 {
		t.Fatal("materialized space reports no fused buffer")
	}
	if lazy.FusedBytes() != 0 {
		t.Fatal("store view materialized a fused buffer")
	}
	const tol = 1e-5
	approx := func(a, b float32) bool { d := a - b; return d < tol && d > -tol }
	if !approx(mat.SelfIP(), lazy.SelfIP()) {
		t.Fatalf("SelfIP: %v vs %v", mat.SelfIP(), lazy.SelfIP())
	}
	q := mat.Vector(3)
	for i := 0; i < mat.Len(); i++ {
		for j := 0; j < 5; j++ {
			if !approx(mat.IP(int32(i), int32(j)), lazy.IP(int32(i), int32(j))) {
				t.Fatalf("IP(%d,%d): %v vs %v", i, j, mat.IP(int32(i), int32(j)), lazy.IP(int32(i), int32(j)))
			}
		}
		if !approx(mat.IPTo(int32(i), q), lazy.IPTo(int32(i), q)) {
			t.Fatalf("IPTo(%d): %v vs %v", i, mat.IPTo(int32(i), q), lazy.IPTo(int32(i), q))
		}
		mv, lv := mat.Vector(int32(i)), lazy.Vector(int32(i))
		for d := range mv {
			if mv[d] != lv[d] {
				t.Fatalf("Vector(%d)[%d]: %v vs %v", i, d, mv[d], lv[d])
			}
		}
	}
	// Release drops the fused buffer and flips the materialized space onto
	// the same lazy path; everything must keep answering.
	mat.Release()
	if mat.FusedBytes() != 0 {
		t.Fatal("Release left fused bytes behind")
	}
	if !approx(mat.IP(0, 1), lazy.IP(0, 1)) {
		t.Fatal("released space disagrees with store view")
	}
	// New rows appended to the shared store become visible to both views.
	st.AppendMulti(vec.Multi{vec.RandUnit(rng, 16), vec.RandUnit(rng, 6), vec.RandUnit(rng, 10)})
	if mat.Len() != 41 || lazy.Len() != 41 {
		t.Fatalf("appended row not visible: %d / %d", mat.Len(), lazy.Len())
	}
	if ip := lazy.IP(40, 40); !approx(ip, lazy.SelfIP()) {
		t.Fatalf("self IP of appended row = %v, want %v", ip, lazy.SelfIP())
	}
	// A still-materialized space must serve rows beyond its fused buffer
	// through the lazy fallback instead of indexing past the buffer.
	mat2 := NewFusedSpaceFromStore(st, w)
	st.AppendMulti(vec.Multi{vec.RandUnit(rng, 16), vec.RandUnit(rng, 6), vec.RandUnit(rng, 10)})
	if mat2.Len() != 42 {
		t.Fatalf("appended row not visible to materialized space: %d", mat2.Len())
	}
	if got, want := mat2.IP(41, 0), lazy.IP(41, 0); !approx(got, want) {
		t.Fatalf("mixed fused/lazy IP = %v, want %v", got, want)
	}
	if ip := mat2.IP(41, 41); !approx(ip, mat2.SelfIP()) {
		t.Fatalf("self IP of row past the fused buffer = %v, want %v", ip, mat2.SelfIP())
	}
	if v := mat2.Vector(41); len(v) != mat2.Dim() {
		t.Fatalf("Vector past the fused buffer has dim %d", len(v))
	}
}

// Insert on a released space must link new vertices well enough that a
// beam search finds them — the §IX dynamic-update path with no fused
// buffer resident.
func TestInsertOnReleasedSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := make([]vec.Multi, 200)
	for i := range objs {
		objs[i] = vec.Multi{vec.RandUnit(rng, 12), vec.RandUnit(rng, 6)}
	}
	w := vec.Weights{0.8, 0.6}
	st := vec.FlatFromMulti(objs)
	s := NewFusedSpaceFromStore(st, w)
	g, err := Ours(10, 3, 9).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	// Append ten new objects to the shared store and link each one.
	for k := 0; k < 10; k++ {
		nv := vec.Multi{vec.RandUnit(rng, 12), vec.RandUnit(rng, 6)}
		id := int32(st.AppendMulti(nv))
		Insert(s, g, id, 10, 40, new(RouteScratch))
		if g.Degree(id) == 0 {
			t.Fatalf("inserted vertex %d has no out-edges", id)
		}
		found := false
		for _, u := range new(RouteScratch).graph(s, g, g.Seed, s.Vector(id), 40) {
			if u == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("beam search cannot reach inserted vertex %d", id)
		}
	}
}

// BenchmarkGraphInsert measures one §IX incremental insert — store
// append, beam search, MRNG selection, reverse edges — on a released
// store-backed 96-d space, the shape the engine inserts through. The
// graph keeps its overlay (the index layer decides when to compact).
func BenchmarkGraphInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(71))
	objs := make([]vec.Multi, 2000)
	for i := range objs {
		objs[i] = vec.Multi{vec.RandUnit(rng, 64), vec.RandUnit(rng, 32)}
	}
	st := vec.FlatFromMulti(objs)
	s := NewFusedSpaceFromStore(st, vec.Weights{0.8, 0.6})
	g, err := Ours(16, 3, 72).Build(s)
	if err != nil {
		b.Fatal(err)
	}
	s.Release()
	var sc RouteScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int32(st.AppendMulti(vec.Multi{vec.RandUnit(rng, 64), vec.RandUnit(rng, 32)}))
		Insert(s, g, id, 16, 64, &sc)
	}
}
