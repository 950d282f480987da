// Benchmarks mapping to the paper's tables and figures (cmd/mustbench's
// -exp list). Each Benchmark* exercises the hot path behind one experiment
// at a CI-affordable corpus size; cmd/mustbench regenerates the full
// tables.
package must_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"must"

	"must/internal/baseline"
	"must/internal/dataset"
	"must/internal/encoder"
	"must/internal/experiments"
	"must/internal/graph"
	"must/internal/index"
	"must/internal/search"
	"must/internal/vec"
	"must/internal/weights"
)

// fixture is a lazily built shared corpus: ImageText-like, 2 modalities.
type fixture struct {
	enc     *dataset.Encoded
	weights vec.Weights
	fused   *index.Fused
	mr      *baseline.MR
	brute   *index.BruteForce
	mrBrute *baseline.MRBrute
}

var (
	fixOnce sync.Once
	fix     fixture

	bigOnce sync.Once
	big     fixture

	cocoOnce sync.Once
	coco     fixture
)

func featureFixture(tb testing.TB, n int) fixture {
	tb.Helper()
	raw, err := dataset.GenerateFeature(dataset.ImageTextN(n, 7))
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := dataset.Encode(raw, dataset.EncoderSet{Unimodal: []encoder.Encoder{
		encoder.NewResNet50(raw.ContentDim, 7),
		encoder.NewOrdinal(raw.AttrDim, 7),
	}})
	if err != nil {
		tb.Fatal(err)
	}
	w := vec.Weights{0.8, 0.6}
	st := vec.FlatFromMulti(enc.Objects)
	experiments.FillGroundTruth(enc, st, w, 10)
	fused, err := index.BuildFusedStore(st, w, graph.Ours(24, 3, 7))
	if err != nil {
		tb.Fatal(err)
	}
	mr, err := baseline.BuildMR(enc.Objects, graph.Ours(24, 3, 7))
	if err != nil {
		tb.Fatal(err)
	}
	return fixture{
		enc: enc, weights: w, fused: fused, mr: mr,
		brute:   &index.BruteForce{Store: st, Weights: w},
		mrBrute: baseline.NewMRBrute(enc.Objects),
	}
}

func getFix(tb testing.TB) *fixture {
	fixOnce.Do(func() { fix = featureFixture(tb, 4000) })
	return &fix
}

// getBig returns the shared 16k-object corpus. Under the race detector
// the corpus shrinks (see raceBigN) so the CI race job is not dominated
// by one instrumented graph build.
func getBig(tb testing.TB) *fixture {
	bigOnce.Do(func() { big = featureFixture(tb, raceBigN(16000)) })
	return &big
}

// clipFixture mirrors featureFixture at CLIP-scale embedding dims: 512-d
// image + 256-d text, the output sizes the paper's real encoders produce
// (vs the 64+32 compact dims of the standard fixture). Rows are 3KB in
// float32, so a scan is bandwidth-bound — the regime the SQ8 shadow
// store targets, where its 4× smaller code rows pay off. At compact dims
// the per-candidate routing overhead dominates and caps the gain.
func clipFixture(tb testing.TB, n int) fixture {
	tb.Helper()
	raw, err := dataset.GenerateFeature(dataset.ImageTextN(n, 7))
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := dataset.Encode(raw, dataset.EncoderSet{Unimodal: []encoder.Encoder{
		encoder.New(encoder.Spec{Name: "CLIP-ViT", LatentDim: raw.ContentDim, Dim: 512, Sigma: encoder.SigmaResNet50, Seed: 7 ^ 0xc11b}),
		encoder.New(encoder.Spec{Name: "Transformer", LatentDim: raw.AttrDim, Dim: 256, Sigma: encoder.SigmaTransformer, Seed: 7 ^ 0x7f5}),
	}})
	if err != nil {
		tb.Fatal(err)
	}
	w := vec.Weights{0.8, 0.6}
	st := vec.FlatFromMulti(enc.Objects)
	experiments.FillGroundTruth(enc, st, w, 10)
	fused, err := index.BuildFusedStore(st, w, graph.Ours(24, 3, 7))
	if err != nil {
		tb.Fatal(err)
	}
	return fixture{enc: enc, weights: w, fused: fused}
}

var (
	clipOnce sync.Once
	clip     fixture
)

// getClip returns the shared 16k CLIP-scale corpus (shrunk under the
// race detector like getBig); the full-size build takes ~20s, paid once
// per process.
func getClip(tb testing.TB) *fixture {
	clipOnce.Do(func() { clip = clipFixture(tb, raceBigN(16000)) })
	return &clip
}

func getCoco(b *testing.B) *fixture {
	cocoOnce.Do(func() {
		raw, err := dataset.GenerateSemantic(dataset.MSCOCOSim(0.2))
		if err != nil {
			b.Fatal(err)
		}
		enc, err := dataset.Encode(raw, dataset.EncoderSet{Unimodal: []encoder.Encoder{
			encoder.NewResNet50(raw.ContentDim, 7),
			encoder.NewGRU(raw.AttrDim, 7),
			encoder.NewResNet50(raw.ContentDim, 9),
		}})
		if err != nil {
			b.Fatal(err)
		}
		w := vec.Weights{0.7, 0.8, 0.5}
		fused, err := index.BuildFusedStore(vec.FlatFromMulti(enc.Objects), w, graph.Ours(24, 3, 7))
		if err != nil {
			b.Fatal(err)
		}
		coco = fixture{enc: enc, weights: w, fused: fused}
	})
	return &coco
}

func benchSearch(b *testing.B, s *search.Searcher, queries []dataset.EncodedQuery, k, l int) {
	b.Helper()
	benchSearchParams(b, s, queries, search.Params{K: k, L: l, Optimize: true})
}

func benchSearchParams(b *testing.B, s *search.Searcher, queries []dataset.EncodedQuery, p search.Params) {
	b.Helper()
	b.ReportAllocs()
	// One warmup call sizes the searcher's reusable buffers (visit marks,
	// result pool, scanner); every timed iteration after it is the
	// steady state TestSearchSteadyStateZeroAllocs holds at 0 allocs/op.
	if _, _, err := s.SearchParams(queries[0].Vectors, p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, _, err := s.SearchParams(q.Vectors, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Flat store + fused kernel: the headline search benchmarks. ---

// BenchmarkSearch times the search path across result-pool sizes l
// (larger l shifts time from routing bookkeeping into the distance
// kernel).
func BenchmarkSearch(b *testing.B) {
	f := getFix(b)
	for _, l := range []int{160, 400, 1600} {
		b.Run(fmt.Sprintf("flat/l=%d", l), func(b *testing.B) {
			benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 10, l)
		})
	}
}

// BenchmarkSearchSQ8 compares the exact float32 search path against the
// SQ8 quantized path (beam over the int8 shadow + exact re-rank of the
// top 4·k) on the 16k CLIP-scale corpus (768 dims/object), where the 4×
// scan-bandwidth reduction shows up as wall-clock — ~2.2× per query on
// AVX2. Both variants run the same graph, queries, and Lemma-4 early
// termination. TestQuantizedRecallCLIPScale pins the recall this speed
// is paid with, on this same fixture.
func BenchmarkSearchSQ8(b *testing.B) {
	f := getClip(b)
	f.fused.Store.EnableSQ8()
	f.fused.Store.SyncSQ8()
	for _, l := range []int{160, 400} {
		for _, quantized := range []bool{false, true} {
			name := "float32"
			if quantized {
				name = "sq8"
			}
			b.Run(fmt.Sprintf("%s/l=%d", name, l), func(b *testing.B) {
				benchSearchParams(b, f.fused.NewSearcher(), f.enc.Queries,
					search.Params{K: 10, L: l, Optimize: true, Quantized: quantized})
			})
		}
	}
}

// BenchmarkBuildWorkers measures graph-construction scaling across
// worker counts (the parallel candidate-acquisition/selection and
// NNDescent join stages; output is identical for every worker count).
func BenchmarkBuildWorkers(b *testing.B) {
	f := getFix(b)
	for _, workers := range []int{1, 2, 4, 0} {
		name := "max"
		if workers > 0 {
			name = strconv.Itoa(workers)
		}
		b.Run(name, func(b *testing.B) {
			prev := graph.SetBuildWorkers(workers)
			defer graph.SetBuildWorkers(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := index.BuildFusedStore(f.fused.Store, f.weights, graph.Ours(24, 3, 7)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Tab. III–V: accuracy-table search path (semantic 2-modality). ---

func BenchmarkTable3MITStatesMUSTSearch(b *testing.B) {
	raw, err := dataset.GenerateSemantic(dataset.MITStatesSim(0.1))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := dataset.Encode(raw, dataset.EncoderSet{Unimodal: []encoder.Encoder{
		encoder.NewResNet50(raw.ContentDim, 7),
		encoder.NewLSTM(raw.AttrDim, 7),
	}})
	if err != nil {
		b.Fatal(err)
	}
	w := vec.Weights{0.8, 0.9}
	fused, err := index.BuildFusedStore(vec.FlatFromMulti(enc.Objects), w, graph.Ours(24, 3, 7))
	if err != nil {
		b.Fatal(err)
	}
	benchSearch(b, fused.NewSearcher(), enc.Queries, 10, 200)
}

// --- Tab. VI: 3-modality search. ---

func BenchmarkTable6ThreeModalitySearch(b *testing.B) {
	f := getCoco(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 10, 200)
}

// --- Fig. 6: the four efficiency competitors. ---

func BenchmarkFig6MUSTSearch(b *testing.B) {
	f := getFix(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 10, 160)
}

func BenchmarkFig6MRSearch(b *testing.B) {
	f := getFix(b)
	s := f.mr.NewSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.enc.Queries[i%len(f.enc.Queries)]
		if _, err := s.Search(q.Vectors, 10, 160); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6MUSTBruteForce(b *testing.B) {
	f := getFix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.enc.Queries[i%len(f.enc.Queries)]
		f.brute.TopK(q.Vectors, 10)
	}
}

func BenchmarkFig6MRBruteForce(b *testing.B) {
	f := getFix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.enc.Queries[i%len(f.enc.Queries)]
		if _, err := f.mrBrute.Search(q.Vectors, 10, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tab. VII: response time vs data volume (4k vs 16k). ---

func BenchmarkTable7ScaleSmallMUST(b *testing.B) {
	f := getFix(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 10, 160)
}

func BenchmarkTable7ScaleBigMUST(b *testing.B) {
	f := getBig(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 10, 160)
}

func BenchmarkTable7ScaleSmallBrute(b *testing.B) {
	f := getFix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.brute.TopK(f.enc.Queries[i%len(f.enc.Queries)].Vectors, 10)
	}
}

func BenchmarkTable7ScaleBigBrute(b *testing.B) {
	f := getBig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.brute.TopK(f.enc.Queries[i%len(f.enc.Queries)].Vectors, 10)
	}
}

// --- Fig. 7: index construction. ---

func BenchmarkFig7BuildMUST(b *testing.B) {
	f := getFix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.BuildFusedStore(f.fused.Store, f.weights, graph.Ours(24, 3, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7BuildMR(b *testing.B) {
	f := getFix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.BuildMR(f.enc.Objects, graph.Ours(24, 3, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 8: k sweep. ---

func BenchmarkFig8K1(b *testing.B) {
	f := getFix(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 1, 160)
}

func BenchmarkFig8K50(b *testing.B) {
	f := getFix(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 50, 160)
}

func BenchmarkFig8K100(b *testing.B) {
	f := getFix(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 100, 160)
}

// --- Fig. 9 / 13: weight learning. ---

func BenchmarkFig9WeightLearning(b *testing.B) {
	f := getFix(b)
	n := 100
	anchors := make([]vec.Multi, 0, n)
	positives := make([]int, 0, n)
	pool := make([]vec.Multi, 0, n)
	for i := 0; i < n; i++ {
		anchors = append(anchors, f.enc.Queries[i%len(f.enc.Queries)].Vectors)
		pool = append(pool, f.enc.Objects[i])
		positives = append(positives, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := weights.Train(anchors, positives, pool, weights.Config{
			Epochs: 10, HardNegatives: true, Seed: int64(i), LearningRate: 0.01,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 10(a): graph construction algorithms. ---

func benchGraphBuild(b *testing.B, build func(*graph.Space) *graph.Graph) {
	b.Helper()
	f := getFix(b)
	space := graph.NewFusedSpaceFromStore(f.fused.Store, f.weights)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(space)
	}
}

func BenchmarkFig10BuildOurs(b *testing.B) {
	benchGraphBuild(b, func(s *graph.Space) *graph.Graph {
		g, err := graph.Ours(24, 3, 7).Build(s)
		if err != nil {
			b.Fatal(err)
		}
		return g
	})
}

func BenchmarkFig10BuildKGraph(b *testing.B) {
	benchGraphBuild(b, func(s *graph.Space) *graph.Graph {
		g, err := graph.KGraphAssembly(24, 3, 7).Build(s)
		if err != nil {
			b.Fatal(err)
		}
		return g
	})
}

func BenchmarkFig10BuildNSG(b *testing.B) {
	benchGraphBuild(b, func(s *graph.Space) *graph.Graph {
		g, err := graph.NSGAssembly(24, 3, 48, 7).Build(s)
		if err != nil {
			b.Fatal(err)
		}
		return g
	})
}

func BenchmarkFig10BuildNSSG(b *testing.B) {
	benchGraphBuild(b, func(s *graph.Space) *graph.Graph {
		g, err := graph.NSSGAssembly(24, 3, 7).Build(s)
		if err != nil {
			b.Fatal(err)
		}
		return g
	})
}

func BenchmarkFig10BuildHNSW(b *testing.B) {
	benchGraphBuild(b, func(s *graph.Space) *graph.Graph {
		return graph.BuildHNSW(s, graph.HNSWConfig{M: 12, EfConstruction: 96, Seed: 7})
	})
}

func BenchmarkFig10BuildVamana(b *testing.B) {
	benchGraphBuild(b, func(s *graph.Space) *graph.Graph {
		return graph.BuildVamana(s, graph.VamanaConfig{Gamma: 24, Beam: 48, Alpha: 1.2, Seed: 7})
	})
}

func BenchmarkFig10BuildHCNNG(b *testing.B) {
	benchGraphBuild(b, func(s *graph.Space) *graph.Graph {
		return graph.BuildHCNNG(s, graph.HCNNGConfig{Rounds: 3, LeafSize: 200, MaxDegree: 24, Seed: 7})
	})
}

// --- Fig. 10(c): partial-IP optimization on vs off. ---

func BenchmarkFig10cOptimizationOn(b *testing.B) {
	f := getFix(b)
	benchSearchParams(b, f.fused.NewSearcher(), f.enc.Queries, search.Params{K: 10, L: 320, Optimize: true})
}

func BenchmarkFig10cOptimizationOff(b *testing.B) {
	f := getFix(b)
	benchSearchParams(b, f.fused.NewSearcher(), f.enc.Queries, search.Params{K: 10, L: 320, Optimize: false})
}

// --- Tab. XI: NNDescent initialization. ---

func BenchmarkTable11NNDescent(b *testing.B) {
	f := getFix(b)
	space := graph.NewFusedSpaceFromStore(f.fused.Store, f.weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.NNDescent{Iters: 3, Seed: int64(i)}.Init(space, 24)
	}
}

// --- Tab. XII: beam sweep. ---

func BenchmarkTable12Beam100(b *testing.B) {
	f := getFix(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 10, 100)
}

func BenchmarkTable12Beam400(b *testing.B) {
	f := getFix(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 10, 400)
}

func BenchmarkTable12Beam1600(b *testing.B) {
	f := getFix(b)
	benchSearch(b, f.fused.NewSearcher(), f.enc.Queries, 10, 1600)
}

// --- Fig. 14/15: γ sweep (build). ---

func BenchmarkFig14Gamma10Build(b *testing.B) {
	f := getFix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.BuildFusedStore(f.fused.Store, f.weights, graph.Ours(10, 3, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14Gamma50Build(b *testing.B) {
	f := getFix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.BuildFusedStore(f.fused.Store, f.weights, graph.Ours(50, 3, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Memory: the single-copy corpus claim, measured. ---

// BenchmarkIndexMemory builds a complete system through the public API
// and reports its steady-state resident heap per indexed object, plus the
// store's own accounting. resident_B/object covers everything — arena,
// graph, ID maps — while corpus_over_raw isolates the single-copy claim:
// it is ~1.0 because the built index shares one arena-backed store across
// the collection, the graph build, and search, with the transient fused
// buffer released before Build returns (down from ~3× when the corpus
// lived in Objects, the graph space, and the searcher store at once).
func BenchmarkIndexMemory(b *testing.B) {
	const (
		n    = 4000
		dImg = 96
		dTxt = 32
	)
	rng := rand.New(rand.NewSource(7))
	raw := make([][]float32, 2*n)
	for i := range raw {
		d := dImg
		if i%2 == 1 {
			d = dTxt
		}
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		raw[i] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		e, err := must.NewEngine(must.Schema{{Name: "image", Dim: dImg}, {Name: "text", Dim: dTxt}},
			must.EngineOptions{Build: must.BuildOptions{Gamma: 24, Seed: 7}})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if _, err := e.InsertObject(must.Object{raw[2*j], raw[2*j+1]}); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Build(); err != nil {
			b.Fatal(err)
		}

		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		resident := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		st, err := e.Stats()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(resident)/n, "resident_B/object")
		b.ReportMetric(float64(st.CorpusBytes)/n, "corpus_B/object")
		b.ReportMetric(float64(st.CorpusBytes)/float64(st.RawVectorBytes), "corpus_over_raw")
		b.ReportMetric(float64(st.FusedBytes), "fused_B")
		// The CSR topology claim, measured: resident graph bytes per edge
		// (flat edges + offsets; ~4 B/edge + 4 B/vertex, no per-vertex
		// slice headers).
		b.ReportMetric(st.GraphBytesPerEdge, "graph_B/edge")
		runtime.KeepAlive(e)
	}
}

// --- Index load: the MUSTIX2 bulk-decode path. ---

// BenchmarkIndexLoad measures deserializing a built index (graph + CSR
// topology blocks) from memory and attaching the shared store —
// the restart-recovery path. MUSTIX2 reads the offsets and edge arrays
// with bulk io.ReadFull decodes; B/op shows whether the loader quietly
// starts re-copying the topology.
func BenchmarkIndexLoad(b *testing.B) {
	f := getFix(b)
	var buf bytes.Buffer
	if err := f.fused.Write(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	store := f.fused.Store
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := index.ReadFused(bytes.NewReader(raw), store)
		if err != nil {
			b.Fatal(err)
		}
		runtime.KeepAlive(ix)
	}
}
