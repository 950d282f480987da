// Package weights implements the paper's lightweight vector weight
// learning model (§VI): a contrastive objective over joint similarities
// that learns the relative importance ω_i of each modality. Negative
// examples are mined by vector search over the pool of true objects under
// the current weights ("hard negatives", Eq. 5), or sampled uniformly for
// the Fig. 9 ablation. The loss is the softmax contrastive loss of Eq. 6
// and training is plain mini-batch gradient descent — the analytic
// gradient substitutes for the paper's PyTorch loop.
package weights

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"must/internal/vec"
)

// Config parameterizes training. Zero values select the paper's defaults
// (Appendix F: learning rate 0.002, 700 iterations; Appendix G: 10
// negatives).
type Config struct {
	// LearningRate is the SGD step size (default 0.002).
	LearningRate float64
	// Epochs is the number of passes over the anchor set (default 700).
	Epochs int
	// NumNegatives is |N−| per anchor (default 10).
	NumNegatives int
	// BatchSize is the minibatch M (default 64).
	BatchSize int
	// HardNegatives selects search-mined negatives (true, the paper's
	// strategy) or uniform random negatives (false, the Fig. 9 ablation).
	HardNegatives bool
	// RemineEvery controls how often (in epochs) hard negatives are
	// refreshed under the current weights (default 10).
	RemineEvery int
	// Seed drives shuffling and random negatives.
	Seed int64
	// Init optionally sets the starting weights; default is uniform
	// (ω_i² = 1/m).
	Init vec.Weights
	// TraceEvery records a Trace point every that many epochs (default
	// 10; 0 keeps the default).
	TraceEvery int
	// NoRenorm disables the per-epoch rescaling of weights to Σω² = m.
	// Joint similarity is scale-invariant in the weights, so the rescale
	// only pins the softmax temperature of the contrastive loss; without
	// it the magnitudes inflate and the learned ratio can drift late in
	// training.
	NoRenorm bool
}

func (c *Config) fillDefaults() {
	if c.LearningRate == 0 {
		c.LearningRate = 0.002
	}
	if c.Epochs == 0 {
		c.Epochs = 700
	}
	if c.NumNegatives == 0 {
		c.NumNegatives = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.RemineEvery == 0 {
		c.RemineEvery = 10
	}
	if c.TraceEvery == 0 {
		c.TraceEvery = 10
	}
}

// Trace is one recorded training point: the loss/recall curves of Fig. 9
// and Fig. 13.
type Trace struct {
	Epoch   int
	Loss    float64
	Recall  float64
	Weights vec.Weights
}

// Result bundles the learned weights with the training curves.
type Result struct {
	// Weights are the final learned ω.
	Weights vec.Weights
	// Trace holds the recorded loss/recall points.
	Trace []Trace
}

// Train learns modality weights from anchors (the query multi-vectors Q),
// their positives (indexes into pool), and the pool of true objects T.
// anchors[i]'s positive example is pool[positives[i]].
func Train(anchors []vec.Multi, positives []int, pool []vec.Multi, cfg Config) (*Result, error) {
	if len(anchors) == 0 {
		return nil, fmt.Errorf("weights: no anchors")
	}
	if len(anchors) != len(positives) {
		return nil, fmt.Errorf("weights: %d anchors but %d positives", len(anchors), len(positives))
	}
	if len(pool) < 2 {
		return nil, fmt.Errorf("weights: pool must hold at least 2 objects")
	}
	for i, p := range positives {
		if p < 0 || p >= len(pool) {
			return nil, fmt.Errorf("weights: positive %d of anchor %d out of range", p, i)
		}
	}
	m := len(anchors[0])
	cfg.fillDefaults()

	w := make(vec.Weights, m)
	if cfg.Init != nil {
		if len(cfg.Init) != m {
			return nil, fmt.Errorf("weights: init has %d weights for %d modalities", len(cfg.Init), m)
		}
		copy(w, cfg.Init)
	} else {
		copy(w, vec.Uniform(m))
	}

	// Precompute the per-modality similarity a_i(p, o) between every
	// anchor and every pool object: the training loop then never touches
	// raw vectors. Memory: len(anchors)·len(pool)·m float32.
	sims := precomputeSims(anchors, pool, m)

	rng := rand.New(rand.NewSource(cfg.Seed))
	negs := make([][]int, len(anchors))
	mine := func() {
		if cfg.HardNegatives {
			mineHard(sims, positives, w, cfg.NumNegatives, negs)
		} else {
			mineRandom(rng, len(pool), positives, cfg.NumNegatives, negs)
		}
	}
	mine()

	res := &Result{}
	order := make([]int, len(anchors))
	for i := range order {
		order[i] = i
	}
	grad := make([]float64, m)
	scores := make([]float64, cfg.NumNegatives+1)

	record := func(epoch int) {
		res.Trace = append(res.Trace, Trace{
			Epoch:   epoch,
			Loss:    loss(sims, positives, negs, w),
			Recall:  recallTop1(sims, positives, w),
			Weights: w.Clone(),
		})
	}
	record(0)

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if cfg.HardNegatives && epoch%cfg.RemineEvery == 0 {
			mine()
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			for i := range grad {
				grad[i] = 0
			}
			for _, ai := range batch {
				accumulateGrad(sims[ai], positives[ai], negs[ai], w, scores, grad)
			}
			scale := cfg.LearningRate / float64(len(batch))
			for i := range w {
				w[i] -= float32(scale * grad[i])
			}
		}
		if !cfg.NoRenorm {
			renormalize(w)
		}
		if epoch%cfg.TraceEvery == 0 || epoch == cfg.Epochs {
			record(epoch)
		}
	}
	res.Weights = w
	return res, nil
}

// renormalize rescales w so that Σω_i² = m, preserving all ratios (joint
// similarity rankings are invariant under positive scaling of ω²). It
// delegates to vec.Weights.Renormalize, which computes the scale and the
// residual correction in float64: the old float32 running sum drifted by
// an ULP per modality per epoch, compounding over hundreds of epochs. A
// degenerate collapse (Σω² ≤ 0) restarts from equal weights at the pinned
// scale (ω_i = 1).
func renormalize(w vec.Weights) {
	w.Renormalize(float64(len(w)))
}

// precomputeSims builds sims[a][o*m+i] = IP(anchor_a modality i, pool_o
// modality i).
func precomputeSims(anchors, pool []vec.Multi, m int) [][]float32 {
	sims := make([][]float32, len(anchors))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	wg.Add(workers)
	for wi := 0; wi < workers; wi++ {
		go func(wi int) {
			defer wg.Done()
			for a := wi; a < len(anchors); a += workers {
				row := make([]float32, len(pool)*m)
				for o, obj := range pool {
					for i := 0; i < m; i++ {
						row[o*m+i] = vec.Dot(anchors[a][i], obj[i])
					}
				}
				sims[a] = row
			}
		}(wi)
	}
	wg.Wait()
	return sims
}

// jointSim evaluates Σ ω_i²·a_i from a precomputed similarity row.
func jointSim(row []float32, o int, w vec.Weights) float64 {
	var s float64
	base := o * len(w)
	for i, wi := range w {
		s += float64(wi) * float64(wi) * float64(row[base+i])
	}
	return s
}

// mineHard fills negs with the NumNegatives pool objects most similar to
// each anchor under the current weights, excluding the positive (Eq. 5).
func mineHard(sims [][]float32, positives []int, w vec.Weights, k int, negs [][]int) {
	type cand struct {
		id int
		s  float64
	}
	nPool := len(sims[0]) / len(w)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	wg.Add(workers)
	for wi := 0; wi < workers; wi++ {
		go func(wi int) {
			defer wg.Done()
			cands := make([]cand, 0, k+2)
			for a := wi; a < len(sims); a += workers {
				cands = cands[:0]
				worst := math.Inf(-1)
				for o := 0; o < nPool; o++ {
					if o == positives[a] {
						continue
					}
					s := jointSim(sims[a], o, w)
					if len(cands) == k && s <= worst {
						continue
					}
					pos := sort.Search(len(cands), func(i int) bool { return cands[i].s < s })
					if len(cands) < k {
						cands = append(cands, cand{})
					} else if pos >= k {
						continue
					}
					copy(cands[pos+1:], cands[pos:])
					cands[pos] = cand{o, s}
					worst = cands[len(cands)-1].s
				}
				out := make([]int, len(cands))
				for i, c := range cands {
					out[i] = c.id
				}
				negs[a] = out
			}
		}(wi)
	}
	wg.Wait()
}

// mineRandom fills negs with uniform random pool objects (≠ positive).
func mineRandom(rng *rand.Rand, nPool int, positives []int, k int, negs [][]int) {
	for a := range negs {
		out := make([]int, 0, k)
		seen := map[int]struct{}{positives[a]: {}}
		for len(out) < k && len(seen) < nPool {
			o := rng.Intn(nPool)
			if _, ok := seen[o]; ok {
				continue
			}
			seen[o] = struct{}{}
			out = append(out, o)
		}
		negs[a] = out
	}
}

// accumulateGrad adds one anchor's gradient of the Eq. 6 loss into grad.
// scores is scratch of size ≥ len(negs)+1.
func accumulateGrad(row []float32, positive int, negIDs []int, w vec.Weights, scores []float64, grad []float64) {
	n := len(negIDs) + 1
	scores = scores[:0]
	scores = append(scores, jointSim(row, positive, w))
	for _, o := range negIDs {
		scores = append(scores, jointSim(row, o, w))
	}
	// Softmax with max-shift for stability.
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	var z float64
	for i := range scores {
		scores[i] = math.Exp(scores[i] - maxS)
		z += scores[i]
	}
	m := len(w)
	for idx := 0; idx < n; idx++ {
		p := scores[idx] / z
		coeff := p
		if idx == 0 {
			coeff = p - 1 // the positive's indicator
		}
		var o int
		if idx == 0 {
			o = positive
		} else {
			o = negIDs[idx-1]
		}
		base := o * m
		for i := 0; i < m; i++ {
			// d(jointSim)/dω_i = 2·ω_i·a_i.
			grad[i] += coeff * 2 * float64(w[i]) * float64(row[base+i])
		}
	}
}

// loss evaluates the mean Eq. 6 loss over all anchors under w.
func loss(sims [][]float32, positives []int, negs [][]int, w vec.Weights) float64 {
	var total float64
	for a := range sims {
		sPos := jointSim(sims[a], positives[a], w)
		maxS := sPos
		negScores := make([]float64, len(negs[a]))
		for i, o := range negs[a] {
			negScores[i] = jointSim(sims[a], o, w)
			if negScores[i] > maxS {
				maxS = negScores[i]
			}
		}
		z := math.Exp(sPos - maxS)
		for _, s := range negScores {
			z += math.Exp(s - maxS)
		}
		total += -(sPos - maxS - math.Log(z))
	}
	return total / float64(len(sims))
}

// recallTop1 reports the fraction of anchors whose positive is the top-1
// pool object under w — the recall curve of Fig. 9.
func recallTop1(sims [][]float32, positives []int, w vec.Weights) float64 {
	nPool := len(sims[0]) / len(w)
	hits := 0
	for a := range sims {
		sPos := jointSim(sims[a], positives[a], w)
		best := true
		for o := 0; o < nPool; o++ {
			if o != positives[a] && jointSim(sims[a], o, w) > sPos {
				best = false
				break
			}
		}
		if best {
			hits++
		}
	}
	return float64(hits) / float64(len(sims))
}
