package experiments

import (
	"fmt"
	"time"

	"must/internal/baseline"
	"must/internal/dataset"
	"must/internal/encoder"
	"must/internal/index"
	"must/internal/metrics"
	"must/internal/search"
	"must/internal/vec"
	"must/internal/weights"
)

// FeatureName selects one of the semi-synthetic datasets of Fig. 6.
type FeatureName string

// The three million-scale dataset analogues (scaled down; see featureBaseN).
const (
	ImageText FeatureName = "ImageText"
	AudioText FeatureName = "AudioText"
	VideoText FeatureName = "VideoText"
)

// featureBaseN is the Scale=1 object count standing in for the paper's 1M.
const featureBaseN = 20000

// EncodeFeature generates and encodes a feature dataset at n objects.
func EncodeFeature(name FeatureName, n int, opt Options) (*dataset.Encoded, error) {
	opt = opt.withDefaults()
	var cfg dataset.FeatureConfig
	switch name {
	case ImageText:
		cfg = dataset.ImageTextN(n, opt.Seed)
	case AudioText:
		cfg = dataset.AudioTextN(n, opt.Seed)
	case VideoText:
		cfg = dataset.VideoTextN(n, opt.Seed)
	default:
		return nil, fmt.Errorf("experiments: unknown feature dataset %q", name)
	}
	raw, err := dataset.GenerateFeature(cfg)
	if err != nil {
		return nil, err
	}
	set := dataset.EncoderSet{Unimodal: []encoder.Encoder{
		encoder.NewResNet50(raw.ContentDim, opt.Seed),
		encoder.NewOrdinal(raw.AttrDim, opt.Seed),
	}}
	return dataset.Encode(raw, set)
}

// LearnFeatureWeights learns modality weights for a feature dataset using
// the uniform-weight exact top-1 of each query as its positive (the
// semi-synthetic stand-in for labeled true objects). st is enc.Objects
// packed, as for FillGroundTruth.
func LearnFeatureWeights(enc *dataset.Encoded, st *vec.FlatStore, opt Options) (vec.Weights, *weights.Result, error) {
	opt = opt.withDefaults()
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
	for _, q := range enc.Queries[:n] {
		top := bf.TopKParallel(q.Vectors, 1)
		if len(top) == 0 {
			continue
		}
		gt := top[0].ID
		pi, ok := poolIdx[gt]
		if !ok {
			pi = len(pool)
			poolIdx[gt] = pi
			pool = append(pool, enc.Objects[gt])
		}
		anchors = append(anchors, q.Vectors)
		positives = append(positives, pi)
	}
	res, err := weights.Train(anchors, positives, pool, weights.Config{
		Epochs:        opt.TrainEpochs,
		HardNegatives: true,
		Seed:          opt.Seed,
		LearningRate:  0.01,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Weights, res, nil
}

// Curve is one method's QPS-vs-recall series (Fig. 6, 8, 10).
type Curve struct {
	Name   string
	Points []metrics.Point
}

// DefaultBeams is the l sweep used for QPS-recall curves.
var DefaultBeams = []int{10, 20, 40, 80, 160, 320, 640, 1280}

// RunQPSRecall reproduces one panel of Fig. 6: QPS vs Recall@k(k) for
// MUST, MUST--, MR and MR-- on the named feature dataset.
func RunQPSRecall(name FeatureName, k int, opt Options) ([]Curve, error) {
	opt = opt.withDefaults()
	n := int(float64(featureBaseN) * opt.Scale)
	enc, err := EncodeFeature(name, n, opt)
	if err != nil {
		return nil, err
	}
	st := vec.FlatFromMulti(enc.Objects)
	w, _, err := LearnFeatureWeights(enc, st, opt)
	if err != nil {
		return nil, err
	}
	FillGroundTruth(enc, st, w, k)

	fused, err := index.BuildFusedStore(st, w, opt.pipeline("MUST"))
	if err != nil {
		return nil, err
	}
	mr, err := baseline.BuildMR(enc.Objects, opt.pipeline("MR"))
	if err != nil {
		return nil, err
	}
	mustBrute := &index.BruteForce{Store: st, Weights: w}
	mrBrute := baseline.NewMRBrute(enc.Objects)

	curves := make([]Curve, 0, 4)
	sweep := func(label string, fn searchFunc) error {
		var pts []metrics.Point
		for _, l := range DefaultBeams {
			if l < k {
				continue
			}
			rec, qps, lat, err := timedEval(enc.Queries, fn, k, l)
			if err != nil {
				return err
			}
			pts = append(pts, metrics.Point{Param: l, Recall: rec, QPS: qps, Latency: lat})
		}
		curves = append(curves, Curve{Name: label, Points: pts})
		return nil
	}
	if err := sweep("MUST", mustSearcherFunc(fused.NewSearcher())); err != nil {
		return nil, err
	}
	if err := sweep("MR", mrFunc(mr.NewSearcher())); err != nil {
		return nil, err
	}
	// Brute-force methods: one point each (no beam knob); MR-- still
	// sweeps l because its merge depends on the per-stream candidate
	// count.
	rec, qps, lat, err := timedEval(enc.Queries, bruteFunc(mustBrute), k, k)
	if err != nil {
		return nil, err
	}
	curves = append(curves, Curve{Name: "MUST--", Points: []metrics.Point{{Param: 0, Recall: rec, QPS: qps, Latency: lat}}})
	var mrbPts []metrics.Point
	for _, l := range []int{k, 4 * k, 16 * k, 64 * k} {
		rec, qps, lat, err := timedEval(enc.Queries, mrBruteFunc(mrBrute), k, l)
		if err != nil {
			return nil, err
		}
		mrbPts = append(mrbPts, metrics.Point{Param: l, Recall: rec, QPS: qps, Latency: lat})
	}
	curves = append(curves, Curve{Name: "MR--", Points: mrbPts})
	return curves, nil
}

// ScaleRow is one row of Tab. VII / Fig. 7: metrics at one data volume.
type ScaleRow struct {
	N int
	// MustResponse and BruteResponse are the total batch response times
	// at Recall@10(10) ≥ target (Tab. VII).
	MustResponse, BruteResponse time.Duration
	// Reduction is the percentage decrease from brute force to MUST.
	Reduction float64
	// MustEvals is MUST's mean full joint evaluations per query at the
	// beam that reached the recall target; brute force evaluates all N.
	// Unlike the response times it does not depend on machine speed.
	MustEvals float64
	// MustBuild and MRBuild are index construction times (Fig. 7a).
	MustBuild, MRBuild time.Duration
	// MustSize and MRSize are index sizes in bytes (Fig. 7b).
	MustSize, MRSize int64
}

// RunScale reproduces Tab. VII and Fig. 7: a geometric data-volume sweep
// (factors × base) on ImageText, comparing MUST against MUST-- response
// time at high recall and against MR on build time and index size.
func RunScale(factors []int, recallTarget float64, opt Options) ([]ScaleRow, error) {
	opt = opt.withDefaults()
	if len(factors) == 0 {
		factors = []int{1, 2, 4, 8, 16}
	}
	base := int(float64(featureBaseN) * opt.Scale / 4)
	if base < 500 {
		base = 500
	}
	const k = 10
	var rows []ScaleRow
	for _, f := range factors {
		n := base * f
		enc, err := EncodeFeature(ImageText, n, opt)
		if err != nil {
			return nil, err
		}
		st := vec.FlatFromMulti(enc.Objects)
		w, _, err := LearnFeatureWeights(enc, st, opt)
		if err != nil {
			return nil, err
		}
		FillGroundTruth(enc, st, w, k)
		fused, err := index.BuildFusedStore(st, w, opt.pipeline("MUST"))
		if err != nil {
			return nil, err
		}
		mr, err := baseline.BuildMR(enc.Objects, opt.pipeline("MR"))
		if err != nil {
			return nil, err
		}
		bf := &index.BruteForce{Store: st, Weights: w}

		// Find the smallest beam achieving the recall target.
		var mustTotal time.Duration
		beam := n // the exhaustive fallback when no listed beam reaches it
		for _, l := range DefaultBeams {
			rec, _, lat, err := timedEval(enc.Queries, mustSearcherFunc(fused.NewSearcher()), k, l)
			if err != nil {
				return nil, err
			}
			mustTotal = lat * time.Duration(len(enc.Queries))
			if rec >= recallTarget {
				beam = l
				break
			}
		}
		if beam == n {
			_, _, lat, err := timedEval(enc.Queries, mustSearcherFunc(fused.NewSearcher()), k, n)
			if err != nil {
				return nil, err
			}
			mustTotal = lat * time.Duration(len(enc.Queries))
		}
		evals, err := meanFullEvals(fused.NewSearcher(), enc.Queries, k, beam)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, q := range enc.Queries {
			bf.TopK(q.Vectors, k)
		}
		bruteTotal := time.Since(start)

		reduction := 0.0
		if bruteTotal > 0 {
			reduction = 100 * (1 - float64(mustTotal)/float64(bruteTotal))
		}
		rows = append(rows, ScaleRow{
			N:             n,
			MustResponse:  mustTotal,
			BruteResponse: bruteTotal,
			Reduction:     reduction,
			MustEvals:     evals,
			MustBuild:     fused.BuildTime,
			MRBuild:       time.Duration(mr.BuildTime()),
			MustSize:      fused.SizeBytes(),
			MRSize:        mr.SizeBytes(),
		})
	}
	return rows, nil
}

// meanFullEvals is the mean number of full joint evaluations s spends per
// query at beam l.
func meanFullEvals(s *search.Searcher, queries []dataset.EncodedQuery, k, l int) (float64, error) {
	total := 0
	for _, q := range queries {
		_, st, err := s.Search(q.Vectors, k, l)
		if err != nil {
			return 0, err
		}
		total += st.FullEvals
	}
	return float64(total) / float64(len(queries)), nil
}

// RunKSweep reproduces Fig. 8: QPS-recall curves of MUST and MR on
// ImageText for several k (1, 50, 100 in the paper).
func RunKSweep(ks []int, opt Options) (map[int][]Curve, error) {
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
	fused, err := index.BuildFusedStore(st, w, opt.pipeline("MUST"))
	if err != nil {
		return nil, err
	}
	mr, err := baseline.BuildMR(enc.Objects, opt.pipeline("MR"))
	if err != nil {
		return nil, err
	}
	out := map[int][]Curve{}
	for _, k := range ks {
		FillGroundTruth(enc, st, w, k)
		var curves []Curve
		for _, run := range []struct {
			name string
			fn   searchFunc
		}{
			{"MUST", mustSearcherFunc(fused.NewSearcher())},
			{"MR", mrFunc(mr.NewSearcher())},
		} {
			var pts []metrics.Point
			for _, l := range DefaultBeams {
				if l < k {
					continue
				}
				rec, qps, lat, err := timedEval(enc.Queries, run.fn, k, l)
				if err != nil {
					return nil, err
				}
				pts = append(pts, metrics.Point{Param: l, Recall: rec, QPS: qps, Latency: lat})
			}
			curves = append(curves, Curve{Name: run.name, Points: pts})
		}
		out[k] = curves
	}
	return out, nil
}
