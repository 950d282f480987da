package index

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"must/internal/graph"
	"must/internal/vec"
)

func fixtureObjects(n int, seed int64) []vec.Multi {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 6
	ca := make([][]float32, clusters)
	cb := make([][]float32, clusters)
	for i := range ca {
		ca[i] = vec.RandUnit(rng, 16)
		cb[i] = vec.RandUnit(rng, 8)
	}
	out := make([]vec.Multi, n)
	for i := range out {
		c := rng.Intn(clusters)
		out[i] = vec.Multi{
			vec.AddGaussianNoise(rng, ca[c], 0.8),
			vec.AddGaussianNoise(rng, cb[c], 0.8),
		}
	}
	return out
}

func TestBuildFusedStore(t *testing.T) {
	st := vec.FlatFromMulti(fixtureObjects(600, 1))
	w := vec.Weights{0.8, 0.5}
	f, err := BuildFusedStore(st, w, graph.Ours(12, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if f.Graph.NumVertices() != 600 {
		t.Fatalf("vertices = %d", f.Graph.NumVertices())
	}
	if f.BuildTime <= 0 {
		t.Error("build time not recorded")
	}
	if f.SizeBytes() <= 0 {
		t.Error("size not positive")
	}
	if f.Pipeline != "Ours" {
		t.Errorf("pipeline = %q", f.Pipeline)
	}
	// Weights must be cloned, not aliased.
	w[0] = 99
	if f.Weights[0] == 99 {
		t.Error("index aliased caller weights")
	}
}

func TestBuildFusedEmpty(t *testing.T) {
	if _, err := BuildFusedStore(nil, vec.Weights{1}, graph.Ours(10, 3, 1)); err == nil {
		t.Error("empty build did not error")
	}
}

func TestBuildFusedGraphHNSW(t *testing.T) {
	st := vec.FlatFromMulti(fixtureObjects(400, 3))
	w := vec.Weights{0.7, 0.7}
	f, err := BuildFusedGraphStore(st, w, "HNSW", func(s *graph.Space) *graph.Graph {
		return graph.BuildHNSW(s, graph.HNSWConfig{M: 8, EfConstruction: 60, Seed: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Pipeline != "HNSW" {
		t.Errorf("pipeline = %q", f.Pipeline)
	}
	s := f.NewSearcher()
	rng := rand.New(rand.NewSource(4))
	q := vec.Multi{vec.RandUnit(rng, 16), vec.RandUnit(rng, 8)}
	got, _, err := s.Search(q, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
}

// TestBruteForceExact checks the scan against vec.JointIP — arithmetic
// independent of the FlatScanner it runs on — on a 3-modality corpus whose
// middle modality has zero weight (it must neither score nor be read).
func TestBruteForceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := []int{16, 8, 12}
	randMulti := func() vec.Multi {
		m := make(vec.Multi, len(dims))
		for i, d := range dims {
			m[i] = vec.RandUnit(rng, d)
		}
		return m
	}
	objects := make([]vec.Multi, 300)
	for i := range objects {
		objects[i] = randMulti()
	}
	w := vec.Weights{0.8, 0, 0.5}
	bf := &BruteForce{Store: vec.FlatFromMulti(objects), Weights: w}
	q := randMulti()
	got := bf.TopK(q, 10)
	if len(got) != 10 {
		t.Fatalf("got %d results", len(got))
	}
	// Every returned IP is the joint IP within float tolerance, and
	// nothing outside the result set beats the worst returned by more.
	const tol = 1e-5
	for _, r := range got {
		if d := r.IP - vec.JointIP(w, q, objects[r.ID]); d > tol || d < -tol {
			t.Fatalf("object %d: IP %v, joint IP %v", r.ID, r.IP, vec.JointIP(w, q, objects[r.ID]))
		}
	}
	worst := got[len(got)-1].IP
	in := make(map[int]bool)
	for _, r := range got {
		in[r.ID] = true
	}
	for i, o := range objects {
		if !in[i] && vec.JointIP(w, q, o) > worst+tol {
			t.Fatalf("object %d beats worst returned but was excluded", i)
		}
	}
	// Sorted descending.
	for i := 1; i < len(got); i++ {
		if got[i].IP > got[i-1].IP {
			t.Fatal("results not sorted")
		}
	}
}

// Property: parallel brute force matches serial brute force exactly.
func TestBruteForceParallelMatchesSerial(t *testing.T) {
	w := vec.Weights{0.8, 0.5}
	bf := &BruteForce{Store: vec.FlatFromMulti(fixtureObjects(500, 7)), Weights: w}
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := vec.Multi{vec.RandUnit(r, 16), vec.RandUnit(r, 8)}
		a := bf.TopK(q, 10)
		b := bf.TopKParallel(q, 10)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceEdgeCases(t *testing.T) {
	bf := &BruteForce{Store: nil, Weights: vec.Weights{1}}
	if got := bf.TopK(vec.Multi{}, 5); len(got) != 0 {
		t.Error("empty corpus returned results")
	}
	bf = &BruteForce{Store: vec.FlatFromMulti(fixtureObjects(3, 9)), Weights: vec.Weights{0.8, 0.5}}
	rng := rand.New(rand.NewSource(10))
	q := vec.Multi{vec.RandUnit(rng, 16), vec.RandUnit(rng, 8)}
	if got := bf.TopK(q, 10); len(got) != 3 {
		t.Errorf("k>n returned %d results, want 3", len(got))
	}
	if got := bf.TopK(q, 0); len(got) != 0 {
		t.Error("k=0 returned results")
	}
}

// Graph search must approach brute-force results — the fused index is an
// approximation of BruteForce (the MUST vs MUST-- relationship).
func TestFusedApproximatesBruteForce(t *testing.T) {
	w := vec.Weights{0.8, 0.5}
	f, err := BuildFusedStore(vec.FlatFromMulti(fixtureObjects(1000, 11)), w, graph.Ours(16, 3, 12))
	if err != nil {
		t.Fatal(err)
	}
	bf := &BruteForce{Store: f.Store, Weights: w}
	s := f.NewSearcher()
	rng := rand.New(rand.NewSource(13))
	var recall float64
	const queries = 20
	for qi := 0; qi < queries; qi++ {
		q := vec.Multi{vec.RandUnit(rng, 16), vec.RandUnit(rng, 8)}
		truth := bf.TopK(q, 10)
		got, _, err := s.Search(q, 10, 300)
		if err != nil {
			t.Fatal(err)
		}
		in := make(map[int]bool)
		for _, r := range truth {
			in[r.ID] = true
		}
		hits := 0
		for _, r := range got {
			if in[r.ID] {
				hits++
			}
		}
		recall += float64(hits) / 10
	}
	recall /= queries
	if recall < 0.9 {
		t.Errorf("fused recall vs brute force = %v, want >= 0.9", recall)
	}
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	objects := fixtureObjects(300, 14)
	w := vec.Weights{0.8, 0.5}
	f, err := BuildFusedStore(vec.FlatFromMulti(objects), w, graph.Ours(10, 3, 15))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFused(&buf, vec.FlatFromMulti(objects))
	if err != nil {
		t.Fatal(err)
	}
	if got.Pipeline != f.Pipeline || got.Graph.Seed != f.Graph.Seed {
		t.Fatal("header mismatch")
	}
	if len(got.Weights) != len(f.Weights) || got.Weights[0] != f.Weights[0] {
		t.Fatal("weights mismatch")
	}
	for v := 0; v < f.Graph.NumVertices(); v++ {
		want := f.Graph.Neighbors(int32(v))
		have := got.Graph.Neighbors(int32(v))
		if len(have) != len(want) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("vertex %d adjacency mismatch", v)
			}
		}
	}
	// A loaded index must search identically (same pool seed).
	rng := rand.New(rand.NewSource(16))
	q := vec.Multi{vec.RandUnit(rng, 16), vec.RandUnit(rng, 8)}
	a, _, _ := f.NewSearcher().Search(q, 5, 50)
	b, _, _ := got.NewSearcher().Search(q, 5, 50)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("loaded index searches differently")
		}
	}
}

func TestIndexFileRoundTrip(t *testing.T) {
	objects := fixtureObjects(100, 17)
	f, err := BuildFusedStore(vec.FlatFromMulti(objects), vec.Weights{0.8, 0.5}, graph.Ours(8, 2, 18))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.bin")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, vec.FlatFromMulti(objects))
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumVertices() != 100 {
		t.Fatal("file round trip lost vertices")
	}
}

func TestReadFusedRejectsMismatchedObjects(t *testing.T) {
	objects := fixtureObjects(50, 19)
	f, err := BuildFusedStore(vec.FlatFromMulti(objects), vec.Weights{0.8, 0.5}, graph.Ours(8, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFused(&buf, vec.FlatFromMulti(objects[:49])); err == nil {
		t.Error("mismatched store row count did not error")
	}
	if _, err := ReadFused(bytes.NewReader([]byte("garbage")), vec.FlatFromMulti(objects)); err == nil {
		t.Error("garbage did not error")
	}
}
