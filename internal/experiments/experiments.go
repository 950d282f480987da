// Package experiments contains one runner per table and figure of the
// paper's evaluation (§VIII and appendices); cmd/mustbench's -exp list
// indexes them. Each runner generates its workload, packs the encoded
// objects once into one vec.FlatStore, runs every compared framework over
// it, and returns rows shaped like the paper's tables; cmd/mustbench
// renders them. Sizes are scaled down from the paper's and controlled by a
// Scale knob.
package experiments

import (
	"fmt"
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

// Options tunes every experiment runner.
type Options struct {
	// Scale multiplies dataset sizes (1 = the internal/dataset presets;
	// tests use less).
	Scale float64
	// Gamma is the graph degree bound γ (default 30 at Scale 1, reduced
	// automatically for small scales).
	Gamma int
	// Iters is the NNDescent ε (default 3).
	Iters int
	// Beam is the accuracy-evaluation beam width l (default 200).
	Beam int
	// TrainEpochs bounds weight-learning epochs (default 200).
	TrainEpochs int
	// Seed namespaces all randomness.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Gamma == 0 {
		o.Gamma = 30
	}
	if o.Iters == 0 {
		o.Iters = 3
	}
	if o.Beam == 0 {
		o.Beam = 200
	}
	if o.TrainEpochs == 0 {
		o.TrainEpochs = 200
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

func (o Options) pipeline(name string) graph.Pipeline {
	p := graph.Ours(o.Gamma, o.Iters, o.Seed)
	p.Name = name
	return p
}

// splitTrainEval reserves up to 20% of queries (capped at 300) for weight
// learning and returns train/eval index ranges.
func splitTrainEval(total int) (train, eval int) {
	train = total / 5
	if train > 300 {
		train = 300
	}
	if train < 1 {
		train = 1
	}
	if train >= total {
		train = total - 1
	}
	return train, total - train
}

// learnWeightsFor trains modality weights on the first part of the query
// workload, with the pool T being the referenced true objects (§VI-A).
func learnWeightsFor(enc *dataset.Encoded, opt Options) (vec.Weights, *weights.Result, error) {
	trainN, _ := splitTrainEval(len(enc.Queries))
	anchors := make([]vec.Multi, 0, trainN)
	var pool []vec.Multi
	poolIdx := map[int]int{}
	positives := make([]int, 0, trainN)
	for _, q := range enc.Queries[:trainN] {
		if len(q.GroundTruth) == 0 {
			continue
		}
		gt := q.GroundTruth[0]
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
		return nil, nil, fmt.Errorf("experiments: learning weights for %s/%s: %w", enc.Name, enc.EncoderLabel, err)
	}
	return res.Weights, res, nil
}

// evalQueries returns the evaluation slice of the workload (after the
// training split).
func evalQueries(enc *dataset.Encoded) []dataset.EncodedQuery {
	trainN, _ := splitTrainEval(len(enc.Queries))
	return enc.Queries[trainN:]
}

// FillGroundTruth computes exact top-k' ground truth under w for every
// query of a feature dataset (§VIII-A's semi-synthetic protocol). st is
// enc.Objects packed (vec.FlatFromMulti), so the ground truth is scored by
// the same kernel as the searches it grades.
func FillGroundTruth(enc *dataset.Encoded, st *vec.FlatStore, w vec.Weights, kPrime int) {
	bf := &index.BruteForce{Store: st, Weights: w}
	for i := range enc.Queries {
		res := bf.TopKParallel(enc.Queries[i].Vectors, kPrime)
		gt := make([]int, len(res))
		for j, r := range res {
			gt[j] = r.ID
		}
		enc.Queries[i].GroundTruth = gt
	}
}

// searchFunc abstracts one framework's search call for shared evaluation.
type searchFunc func(q vec.Multi, k, l int) ([]int, error)

// accuracyEval runs queries through fn and reports Recall@k(k') for each
// requested k plus the mean SME of the top-1 result (Eq. 4).
func accuracyEval(enc *dataset.Encoded, queries []dataset.EncodedQuery, fn searchFunc, ks []int, l int) (map[int]float64, float64, error) {
	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	if l < maxK {
		l = maxK
	}
	recalls := make(map[int]float64, len(ks))
	var smeSum float64
	var smeCount int
	for _, q := range queries {
		ids, err := fn(q.Vectors, maxK, l)
		if err != nil {
			return nil, 0, err
		}
		for _, k := range ks {
			top := ids
			if len(top) > k {
				top = top[:k]
			}
			recalls[k] += metrics.Recall(top, q.GroundTruth)
		}
		if len(ids) > 0 && len(q.GroundTruth) > 0 {
			gt0 := enc.Objects[q.GroundTruth[0]][0]
			r0 := enc.Objects[ids[0]][0]
			smeSum += metrics.SME(vec.Dot(gt0, r0))
			smeCount++
		}
	}
	for _, k := range ks {
		recalls[k] /= float64(len(queries))
	}
	sme := 0.0
	if smeCount > 0 {
		sme = smeSum / float64(smeCount)
	}
	return recalls, sme, nil
}

// timedEval measures single-threaded throughput: it runs all queries
// through fn, returning mean recall@k(k') and the observed QPS.
func timedEval(queries []dataset.EncodedQuery, fn searchFunc, k, l int) (recall, qps float64, mean time.Duration, err error) {
	start := time.Now()
	var total float64
	for _, q := range queries {
		ids, e := fn(q.Vectors, k, l)
		if e != nil {
			return 0, 0, 0, e
		}
		total += metrics.Recall(ids, q.GroundTruth)
	}
	elapsed := time.Since(start)
	n := len(queries)
	return total / float64(n), metrics.QPS(n, elapsed), elapsed / time.Duration(n), nil
}

// mustSearcherFunc adapts a fused-index searcher.
func mustSearcherFunc(s *search.Searcher) searchFunc {
	return func(q vec.Multi, k, l int) ([]int, error) {
		res, _, err := s.Search(q, k, l)
		if err != nil {
			return nil, err
		}
		return search.IDs(res), nil
	}
}

// bruteFunc adapts exact search (MUST--).
func bruteFunc(bf *index.BruteForce) searchFunc {
	return func(q vec.Multi, k, _ int) ([]int, error) {
		return search.IDs(bf.TopK(q, k)), nil
	}
}

// mrFunc adapts the MR searcher.
func mrFunc(s *baseline.MRSearcher) searchFunc {
	return func(q vec.Multi, k, l int) ([]int, error) { return s.Search(q, k, l) }
}

// mrBruteFunc adapts MR--.
func mrBruteFunc(b *baseline.MRBrute) searchFunc {
	return func(q vec.Multi, k, l int) ([]int, error) { return b.Search(q, k, l) }
}

// jeFunc adapts the JE searcher.
func jeFunc(s *baseline.JESearcher) searchFunc {
	return func(q vec.Multi, k, l int) ([]int, error) { return s.Search(q, k, l) }
}
