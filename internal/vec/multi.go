package vec

import (
	"fmt"
	"math"
)

// Multi is a multi-vector representation of an object or query: one
// L2-normalized vector per modality (§V of the paper). The slice index is
// the modality index; modality 0 is the target modality by convention.
type Multi [][]float32

// Dims returns the per-modality dimensions of m.
func (m Multi) Dims() []int {
	out := make([]int, len(m))
	for i, v := range m {
		out[i] = len(v)
	}
	return out
}

// TotalDim returns the dimension of the concatenated vector.
func (m Multi) TotalDim() int {
	total := 0
	for _, v := range m {
		total += len(v)
	}
	return total
}

// Weights holds the per-modality weights ω_i of §VI. The joint similarity
// between two multi-vectors under w is Σ ω_i² · IP_i (Lemma 1).
type Weights []float32

// Uniform returns m equal weights that square-sum to 1, the paper's
// ω_0² = ... = ω_{m-1}² = 1/m starting point. The weights are computed in
// float64 and then renormalized so the float32 squared sum lands exactly
// on 1.0 — naive float32(1/√m) weights drift by a few ULPs per modality,
// which compounds through SumSquared into every Lemma 4 bound.
func Uniform(m int) Weights {
	w := make(Weights, m)
	v := float32(math.Sqrt(1 / float64(m)))
	for i := range w {
		w[i] = v
	}
	return w.Renormalize(1)
}

// Renormalize rescales w in place so that SumSquared() equals target as
// exactly as float32 representation allows, and returns w. The scale is
// computed in float64 to avoid the drift of a float32 running sum, then a
// final correction nudges one weight so the float64-accumulated squared
// sum lands on target (ratios between weights are preserved to within one
// ULP, so joint-similarity rankings are unaffected). A non-positive
// squared sum (degenerate collapse) resets to equal weights at the target
// scale.
func (w Weights) Renormalize(target float64) Weights {
	if len(w) == 0 {
		return w
	}
	sum := w.sumSquared64()
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		v := float32(math.Sqrt(target / float64(len(w))))
		for i := range w {
			w[i] = v
		}
	} else {
		scale := math.Sqrt(target / sum)
		for i := range w {
			w[i] = float32(float64(w[i]) * scale)
		}
	}
	// float32 quantization of the scaled weights leaves a residual of a few
	// ULPs. Absorb it by nudging one weight at a time (cycling so no single
	// weight's ULP granularity limits the search) until the
	// float64-accumulated squared sum rounds in float32 exactly to target.
	// Candidates per step: the analytic correction δ = diff/(2·ω_j) and the
	// adjacent representable values, in case δ is below ω_j's half-ULP.
	t32 := float32(target)
	for iter := 0; iter < 4*len(w); iter++ {
		sum := w.sumSquared64()
		if float32(sum) == t32 {
			break
		}
		diff := target - sum
		j := iter % len(w)
		wj := float64(w[j])
		if wj == 0 {
			continue
		}
		cands := [3]float32{
			float32(wj + diff/(2*wj)),
			math.Nextafter32(w[j], float32(math.Inf(1))),
			math.Nextafter32(w[j], float32(math.Inf(-1))),
		}
		best, bestErr := w[j], math.Abs(diff)
		for _, c := range cands {
			w[j] = c
			s := w.sumSquared64()
			if float32(s) == t32 {
				best = c
				break
			}
			if e := math.Abs(target - s); e < bestErr {
				best, bestErr = c, e
			}
		}
		w[j] = best
	}
	return w
}

// Squared returns the squared weights ω_i², which is what Lemma 1
// multiplies per-modality similarities by.
func (w Weights) Squared() []float32 {
	out := make([]float32, len(w))
	for i, x := range w {
		out[i] = x * x
	}
	return out
}

// Clone returns a copy of w.
func (w Weights) Clone() Weights {
	out := make(Weights, len(w))
	copy(out, w)
	return out
}

// JointIP computes the joint similarity between two multi-vectors under
// the weights w: Σ ω_i² · IP(a_i, b_i) (Lemma 1). Modalities beyond
// len(w) — or with a zero weight — are skipped, which implements the
// t != m case of §VII-B (missing query modalities get ω_i = 0).
func JointIP(w Weights, a, b Multi) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: joint IP modality mismatch %d != %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		if i >= len(w) || w[i] == 0 {
			continue
		}
		s += w[i] * w[i] * Dot(a[i], b[i])
	}
	return s
}

// WeightedConcat builds the concatenated vector
// [ω_0·a_0, ..., ω_{m-1}·a_{m-1}] of §VI. The result is NOT re-normalized:
// Lemma 1 requires the raw weighted concatenation.
func WeightedConcat(w Weights, a Multi) []float32 {
	out := make([]float32, 0, a.TotalDim())
	for i, v := range a {
		wi := float32(0)
		if i < len(w) {
			wi = w[i]
		}
		for _, x := range v {
			out = append(out, wi*x)
		}
	}
	return out
}

// SumSquared returns Σ ω_i², used to relate joint IP and joint L2
// on normalized per-modality vectors:
//
//	JointIP = Σ ω_i² − ½·Σ ω_i²·‖a_i − b_i‖².
//
// The sum is accumulated in float64: it seeds every Lemma 4 upper bound,
// and float32 accumulation drifts by one ULP per modality.
func (w Weights) SumSquared() float32 {
	return float32(w.sumSquared64())
}

func (w Weights) sumSquared64() float64 {
	var s float64
	for _, x := range w {
		s += float64(x) * float64(x)
	}
	return s
}
