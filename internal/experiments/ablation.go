package experiments

import (
	"math"
	"strconv"
	"time"

	"must/internal/baseline"
	"must/internal/dataset"
	"must/internal/graph"
	"must/internal/index"
	"must/internal/metrics"
	"must/internal/search"
	"must/internal/vec"
	"must/internal/weights"
)

// WeightLearningRun is one training configuration's outcome (Fig. 9 and
// Fig. 13): the loss/recall curves plus the learned weights.
type WeightLearningRun struct {
	Label   string
	Trace   []weights.Trace
	Weights vec.Weights
}

// RunWeightLearning reproduces Fig. 9: hard- vs random-negative training
// on the ImageText dataset.
func RunWeightLearning(opt Options) ([]WeightLearningRun, error) {
	opt = opt.withDefaults()
	n := int(float64(featureBaseN) * opt.Scale)
	enc, err := EncodeFeature(ImageText, n, opt)
	if err != nil {
		return nil, err
	}
	anchors, positives, pool, err := featureTrainingSet(enc, vec.FlatFromMulti(enc.Objects))
	if err != nil {
		return nil, err
	}
	var out []WeightLearningRun
	for _, hard := range []bool{true, false} {
		label := "Hard"
		epochs := opt.TrainEpochs
		if !hard {
			label = "Random"
			epochs = opt.TrainEpochs * 2 // the paper trains random longer (Fig. 9b)
		}
		res, err := weights.Train(anchors, positives, pool, weights.Config{
			Epochs:        epochs,
			HardNegatives: hard,
			Seed:          opt.Seed,
			LearningRate:  0.01,
			Init:          skewedInit(),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WeightLearningRun{Label: label, Trace: res.Trace, Weights: res.Weights})
	}
	return out, nil
}

// RunNegativeCount reproduces Fig. 13: hard-negative training with
// |N−| ∈ negCounts.
func RunNegativeCount(negCounts []int, opt Options) ([]WeightLearningRun, error) {
	opt = opt.withDefaults()
	if len(negCounts) == 0 {
		negCounts = []int{1, 2, 4, 6, 8, 10}
	}
	n := int(float64(featureBaseN) * opt.Scale)
	enc, err := EncodeFeature(ImageText, n, opt)
	if err != nil {
		return nil, err
	}
	anchors, positives, pool, err := featureTrainingSet(enc, vec.FlatFromMulti(enc.Objects))
	if err != nil {
		return nil, err
	}
	var out []WeightLearningRun
	for _, nn := range negCounts {
		res, err := weights.Train(anchors, positives, pool, weights.Config{
			Epochs:        opt.TrainEpochs,
			NumNegatives:  nn,
			HardNegatives: true,
			Seed:          opt.Seed,
			LearningRate:  0.01,
			Init:          skewedInit(),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WeightLearningRun{
			Label:   "|N-|=" + strconv.Itoa(nn),
			Trace:   res.Trace,
			Weights: res.Weights,
		})
	}
	return out, nil
}

// featureTrainingSet assembles (anchors, positives, pool) for a feature
// dataset: each query's positive is its uniform-weight exact top-1, and
// the pool additionally contains each query's next-nearest objects as hard
// decoys — without them the pool is trivially separable and the learning
// curves of Fig. 9/13 degenerate. st is enc.Objects packed.
func featureTrainingSet(enc *dataset.Encoded, st *vec.FlatStore) ([]vec.Multi, []int, []vec.Multi, error) {
	uniform := vec.Uniform(enc.M)
	bf := &index.BruteForce{Store: st, Weights: uniform}
	n := len(enc.Queries)
	if n > 200 {
		n = 200
	}
	anchors := make([]vec.Multi, 0, n)
	positives := make([]int, 0, n)
	poolIdx := map[int]int{}
	var pool []vec.Multi
	intern := func(id int) int {
		pi, ok := poolIdx[id]
		if !ok {
			pi = len(pool)
			poolIdx[id] = pi
			pool = append(pool, enc.Objects[id])
		}
		return pi
	}
	for _, q := range enc.Queries[:n] {
		top := bf.TopKParallel(q.Vectors, 6)
		if len(top) == 0 {
			continue
		}
		anchors = append(anchors, q.Vectors)
		positives = append(positives, intern(top[0].ID))
		for _, decoy := range top[1:] {
			intern(decoy.ID)
		}
	}
	return anchors, positives, pool, nil
}

// skewedInit is a deliberately wrong starting ratio for the Fig. 9/13
// learning curves (the paper starts from random weights); normalized to
// Σω² = 2.
func skewedInit() vec.Weights {
	w := vec.Weights{0.35, 1.36}
	scale := float32(math.Sqrt(2 / float64(w.SumSquared())))
	for i := range w {
		w[i] *= scale
	}
	return w
}

// UserWeightRow is one column of Tab. IX: per-modality similarities of the
// top-1 result under a user-defined weight split.
type UserWeightRow struct {
	W0Sq, W1Sq float64
	// IP0 and IP1 are the mean per-modality inner products between the
	// query and its top-1 result.
	IP0, IP1 float64
}

// RunUserWeights reproduces Tab. IX on MIT-States: sweeping ω₀²/ω₁² and
// measuring how the returned objects trade target-modality similarity
// against auxiliary-modality similarity.
func RunUserWeights(splits []float64, opt Options) ([]UserWeightRow, error) {
	opt = opt.withDefaults()
	if len(splits) == 0 {
		splits = []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	}
	raw, err := dataset.GenerateSemantic(dataset.MITStatesSim(opt.Scale))
	if err != nil {
		return nil, err
	}
	enc, err := dataset.Encode(raw, mitStatesBestSet(raw, opt.Seed))
	if err != nil {
		return nil, err
	}
	eval := evalQueries(enc)
	if len(eval) > 300 {
		eval = eval[:300]
	}
	st := vec.FlatFromMulti(enc.Objects)
	var rows []UserWeightRow
	for _, w0sq := range splits {
		w := vec.Weights{float32(math.Sqrt(w0sq)), float32(math.Sqrt(1 - w0sq))}
		fused, err := index.BuildFusedStore(st, w, opt.pipeline("user"))
		if err != nil {
			return nil, err
		}
		s := fused.NewSearcher()
		var ip0, ip1 float64
		for _, q := range eval {
			res, _, err := s.Search(q.Vectors, 1, opt.Beam)
			if err != nil {
				return nil, err
			}
			if len(res) == 0 {
				continue
			}
			r := enc.Objects[res[0].ID]
			ip0 += float64(vec.Dot(q.Vectors[0], r[0]))
			ip1 += float64(vec.Dot(q.Vectors[1], r[1]))
		}
		rows = append(rows, UserWeightRow{
			W0Sq: w0sq, W1Sq: 1 - w0sq,
			IP0: ip0 / float64(len(eval)),
			IP1: ip1 / float64(len(eval)),
		})
	}
	return rows, nil
}

// GraphCompareRow is one proximity graph's build cost (Fig. 10a) and
// QPS-recall curve (Fig. 10b) under the same joint search.
type GraphCompareRow struct {
	Name      string
	BuildTime time.Duration
	SizeBytes int64
	Curve     []metrics.Point
}

// RunGraphComparison reproduces Fig. 10(a)(b): the fused index built by
// every §VIII-G graph algorithm on ImageText, searched with MUST's joint
// search.
func RunGraphComparison(opt Options) ([]GraphCompareRow, error) {
	opt = opt.withDefaults()
	n := int(float64(featureBaseN) * opt.Scale)
	enc, err := EncodeFeature(ImageText, n, opt)
	if err != nil {
		return nil, err
	}
	st := vec.FlatFromMulti(enc.Objects)
	w, _, err := LearnFeatureWeights(enc, st, opt)
	if err != nil {
		return nil, err
	}
	const k = 10
	FillGroundTruth(enc, st, w, k)

	builders := []struct {
		name  string
		build func() (*index.Fused, error)
	}{
		{"Ours", func() (*index.Fused, error) {
			return index.BuildFusedStore(st, w, opt.pipeline("Ours"))
		}},
		{"KGraph", func() (*index.Fused, error) {
			return index.BuildFusedStore(st, w, graph.KGraphAssembly(opt.Gamma, opt.Iters, opt.Seed))
		}},
		{"NSG", func() (*index.Fused, error) {
			return index.BuildFusedStore(st, w, graph.NSGAssembly(opt.Gamma, opt.Iters, 2*opt.Gamma, opt.Seed))
		}},
		{"NSSG", func() (*index.Fused, error) {
			return index.BuildFusedStore(st, w, graph.NSSGAssembly(opt.Gamma, opt.Iters, opt.Seed))
		}},
		{"HNSW", func() (*index.Fused, error) {
			return index.BuildFusedGraphStore(st, w, "HNSW", func(s *graph.Space) *graph.Graph {
				return graph.BuildHNSW(s, graph.HNSWConfig{M: opt.Gamma / 2, EfConstruction: 4 * opt.Gamma, Seed: opt.Seed})
			})
		}},
		{"Vamana", func() (*index.Fused, error) {
			return index.BuildFusedGraphStore(st, w, "Vamana", func(s *graph.Space) *graph.Graph {
				return graph.BuildVamana(s, graph.VamanaConfig{Gamma: opt.Gamma, Beam: 2 * opt.Gamma, Alpha: 1.2, Seed: opt.Seed})
			})
		}},
		{"HCNNG", func() (*index.Fused, error) {
			return index.BuildFusedGraphStore(st, w, "HCNNG", func(s *graph.Space) *graph.Graph {
				return graph.BuildHCNNG(s, graph.HCNNGConfig{Rounds: 3, LeafSize: 200, MaxDegree: opt.Gamma, Seed: opt.Seed})
			})
		}},
	}
	var rows []GraphCompareRow
	for _, b := range builders {
		fused, err := b.build()
		if err != nil {
			return nil, err
		}
		row := GraphCompareRow{Name: b.name, BuildTime: fused.BuildTime, SizeBytes: fused.SizeBytes()}
		for _, l := range DefaultBeams {
			if l < k {
				continue
			}
			rec, qps, lat, err := timedEval(enc.Queries, mustSearcherFunc(fused.NewSearcher()), k, l)
			if err != nil {
				return nil, err
			}
			row.Curve = append(row.Curve, metrics.Point{Param: l, Recall: rec, QPS: qps, Latency: lat})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// OptimizationPoint pairs the on/off measurements of Fig. 10(c).
type OptimizationPoint struct {
	Beam                 int
	RecallOn, RecallOff  float64
	QPSOn, QPSOff        float64
	FullEvals, PartSkips int
}

// RunMultiVectorOptimization reproduces Fig. 10(c): the joint search with
// and without the Lemma 4 partial-IP early termination.
func RunMultiVectorOptimization(opt Options) ([]OptimizationPoint, error) {
	opt = opt.withDefaults()
	n := int(float64(featureBaseN) * opt.Scale)
	enc, err := EncodeFeature(ImageText, n, opt)
	if err != nil {
		return nil, err
	}
	st := vec.FlatFromMulti(enc.Objects)
	w, _, err := LearnFeatureWeights(enc, st, opt)
	if err != nil {
		return nil, err
	}
	const k = 10
	FillGroundTruth(enc, st, w, k)
	fused, err := index.BuildFusedStore(st, w, opt.pipeline("MUST"))
	if err != nil {
		return nil, err
	}
	var out []OptimizationPoint
	for _, l := range DefaultBeams {
		if l < k {
			continue
		}
		sOn := fused.NewSearcher()
		recOn, qpsOn, _, err := timedEval(enc.Queries, mustSearcherFunc(sOn), k, l)
		if err != nil {
			return nil, err
		}
		sOff := fused.NewSearcher()
		recOff, qpsOff, _, err := timedEval(enc.Queries, func(q vec.Multi, k, l int) ([]int, error) {
			res, _, err := sOff.SearchParams(q, search.Params{K: k, L: l, Optimize: false})
			return search.IDs(res), err
		}, k, l)
		if err != nil {
			return nil, err
		}
		// Sample one query for the work counters.
		sStat := fused.NewSearcher()
		var fe, ps int
		if len(enc.Queries) > 0 {
			_, st, err := sStat.Search(enc.Queries[0].Vectors, k, l)
			if err != nil {
				return nil, err
			}
			fe, ps = st.FullEvals, st.PartialSkips
		}
		out = append(out, OptimizationPoint{
			Beam: l, RecallOn: recOn, RecallOff: recOff,
			QPSOn: qpsOn, QPSOff: qpsOff,
			FullEvals: fe, PartSkips: ps,
		})
	}
	return out, nil
}

// NeighborAuditRow quantifies Fig. 11: the mean per-modality similarity
// between vertices and their index neighbors, for the fused index versus
// MR's per-modality indexes.
type NeighborAuditRow struct {
	Index string
	// MeanIP0 and MeanIP1 are the mean modality-0 / modality-1 inner
	// products across sampled (vertex, neighbor) pairs.
	MeanIP0, MeanIP1 float64
	// MeanJoint is the mean joint similarity under the learned weights.
	MeanJoint float64
}

// RunNeighborAudit reproduces Fig. 11 quantitatively on CelebA: MUST's
// fused index balances both modalities where MR's indexes each collapse to
// one.
func RunNeighborAudit(opt Options) ([]NeighborAuditRow, error) {
	opt = opt.withDefaults()
	raw, err := dataset.GenerateSemantic(dataset.CelebASim(opt.Scale))
	if err != nil {
		return nil, err
	}
	enc, err := dataset.Encode(raw, celebABestSet(raw, opt.Seed))
	if err != nil {
		return nil, err
	}
	w, _, err := learnWeightsFor(enc, opt)
	if err != nil {
		return nil, err
	}
	fused, err := index.BuildFusedStore(vec.FlatFromMulti(enc.Objects), w, opt.pipeline("MUST"))
	if err != nil {
		return nil, err
	}
	mr, err := baseline.BuildMR(enc.Objects, opt.pipeline("MR"))
	if err != nil {
		return nil, err
	}
	audit := func(name string, g *graph.Graph) NeighborAuditRow {
		var ip0, ip1, joint float64
		var count int
		stride := len(enc.Objects) / 200
		if stride < 1 {
			stride = 1
		}
		for v := 0; v < len(enc.Objects); v += stride {
			for _, u := range g.Neighbors(int32(v)) {
				a, b := enc.Objects[v], enc.Objects[u]
				ip0 += float64(vec.Dot(a[0], b[0]))
				ip1 += float64(vec.Dot(a[1], b[1]))
				joint += float64(vec.JointIP(w, a, b))
				count++
			}
		}
		if count == 0 {
			return NeighborAuditRow{Index: name}
		}
		return NeighborAuditRow{
			Index:   name,
			MeanIP0: ip0 / float64(count), MeanIP1: ip1 / float64(count),
			MeanJoint: joint / float64(count),
		}
	}
	return []NeighborAuditRow{
		audit("MUST(fused)", fused.Graph),
		audit("MR(modality0)", mr.Indexes()[0].Graph),
		audit("MR(modality1)", mr.Indexes()[1].Graph),
	}, nil
}

// GraphQualityRow is one row of Tab. XI: NNDescent graph quality after ε
// iterations, per dataset.
type GraphQualityRow struct {
	Dataset FeatureName
	// Quality maps ε → graph quality.
	Quality map[int]float64
}

// RunGraphQuality reproduces Tab. XI on the three feature datasets.
func RunGraphQuality(iters []int, opt Options) ([]GraphQualityRow, error) {
	opt = opt.withDefaults()
	if len(iters) == 0 {
		iters = []int{1, 2, 3}
	}
	n := int(float64(featureBaseN) * opt.Scale / 4)
	if n < 500 {
		n = 500
	}
	var rows []GraphQualityRow
	for _, name := range []FeatureName{ImageText, AudioText, VideoText} {
		enc, err := EncodeFeature(name, n, opt)
		if err != nil {
			return nil, err
		}
		w := vec.Uniform(enc.M)
		space := graph.NewFusedSpaceFromStore(vec.FlatFromMulti(enc.Objects), w)
		row := GraphQualityRow{Dataset: name, Quality: map[int]float64{}}
		for _, e := range iters {
			adj := graph.NNDescent{Iters: e, Seed: opt.Seed}.Init(space, opt.Gamma)
			g := graph.NewCSR(adj, 0)
			row.Quality[e] = graph.Quality(g, space, opt.Gamma, 100)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BeamRow is one column of Tab. XII: recall, response time and full
// evaluations per query at one l.
type BeamRow struct {
	L       int
	Recall  float64
	Latency time.Duration
	QPS     float64
	Evals   float64
}

// RunBeamSweep reproduces Tab. XII: Recall@10(10) and response time as l
// grows, on ImageText.
func RunBeamSweep(beams []int, opt Options) ([]BeamRow, error) {
	opt = opt.withDefaults()
	if len(beams) == 0 {
		beams = []int{50, 100, 200, 400, 800, 1600}
	}
	n := int(float64(featureBaseN) * opt.Scale)
	enc, err := EncodeFeature(ImageText, n, opt)
	if err != nil {
		return nil, err
	}
	st := vec.FlatFromMulti(enc.Objects)
	w, _, err := LearnFeatureWeights(enc, st, opt)
	if err != nil {
		return nil, err
	}
	const k = 10
	FillGroundTruth(enc, st, w, k)
	fused, err := index.BuildFusedStore(st, w, opt.pipeline("MUST"))
	if err != nil {
		return nil, err
	}
	var rows []BeamRow
	for _, l := range beams {
		rec, qps, lat, err := timedEval(enc.Queries, mustSearcherFunc(fused.NewSearcher()), k, l)
		if err != nil {
			return nil, err
		}
		evals, err := meanFullEvals(fused.NewSearcher(), enc.Queries, k, l)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BeamRow{L: l, Recall: rec, Latency: lat, QPS: qps, Evals: evals})
	}
	return rows, nil
}

// GammaRow is one γ setting's costs and search quality (Fig. 14/15).
type GammaRow struct {
	Gamma     int
	BuildTime time.Duration
	SizeBytes int64
	Recall    float64
	Latency   time.Duration
}

// RunGammaSweep reproduces Fig. 14/15: the effect of the degree bound γ on
// index size, build time, recall and response time (fixed l).
func RunGammaSweep(gammas []int, beam int, opt Options) ([]GammaRow, error) {
	opt = opt.withDefaults()
	if len(gammas) == 0 {
		gammas = []int{10, 20, 30, 40, 50}
	}
	if beam == 0 {
		beam = 400
	}
	n := int(float64(featureBaseN) * opt.Scale)
	enc, err := EncodeFeature(ImageText, n, opt)
	if err != nil {
		return nil, err
	}
	st := vec.FlatFromMulti(enc.Objects)
	w, _, err := LearnFeatureWeights(enc, st, opt)
	if err != nil {
		return nil, err
	}
	const k = 10
	FillGroundTruth(enc, st, w, k)
	var rows []GammaRow
	for _, g := range gammas {
		o := opt
		o.Gamma = g
		fused, err := index.BuildFusedStore(st, w, o.pipeline("MUST"))
		if err != nil {
			return nil, err
		}
		rec, _, lat, err := timedEval(enc.Queries, mustSearcherFunc(fused.NewSearcher()), k, beam)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GammaRow{
			Gamma: g, BuildTime: fused.BuildTime, SizeBytes: fused.SizeBytes(),
			Recall: rec, Latency: lat,
		})
	}
	return rows, nil
}

// RunIndexStats builds the fused ImageText index and audits its graph
// structure (not a paper experiment; an index-health report for
// operators).
func RunIndexStats(opt Options) (graph.Stats, map[int]int, error) {
	opt = opt.withDefaults()
	n := int(float64(featureBaseN) * opt.Scale)
	enc, err := EncodeFeature(ImageText, n, opt)
	if err != nil {
		return graph.Stats{}, nil, err
	}
	st := vec.FlatFromMulti(enc.Objects)
	w, _, err := LearnFeatureWeights(enc, st, opt)
	if err != nil {
		return graph.Stats{}, nil, err
	}
	fused, err := index.BuildFusedStore(st, w, opt.pipeline("MUST"))
	if err != nil {
		return graph.Stats{}, nil, err
	}
	return graph.ComputeStats(fused.Graph), graph.DegreeHistogram(fused.Graph, 5), nil
}

// LearnedWeightRow records Tab. XIII–XVIII: the learned ω² per dataset and
// encoder combination.
type LearnedWeightRow struct {
	Dataset string
	Encoder string
	WSq     []float64
}

// RunLearnedWeights collects the learned weights across the feature
// datasets (Tab. XVIII); the per-encoder semantic weights appear in the
// accuracy tables' Weights column (Tab. XIII–XVII).
func RunLearnedWeights(opt Options) ([]LearnedWeightRow, error) {
	opt = opt.withDefaults()
	n := int(float64(featureBaseN) * opt.Scale)
	var rows []LearnedWeightRow
	for _, name := range []FeatureName{ImageText, AudioText, VideoText} {
		enc, err := EncodeFeature(name, n, opt)
		if err != nil {
			return nil, err
		}
		w, _, err := LearnFeatureWeights(enc, vec.FlatFromMulti(enc.Objects), opt)
		if err != nil {
			return nil, err
		}
		wsq := make([]float64, len(w))
		for i, x := range w {
			wsq[i] = float64(x) * float64(x)
		}
		rows = append(rows, LearnedWeightRow{Dataset: string(name), Encoder: enc.EncoderLabel, WSq: wsq})
	}
	return rows, nil
}
