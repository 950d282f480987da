// Package metrics implements the paper's evaluation metrics: the recall
// rate Recall@k(k') of Eq. 1, the similarity measurement error SME of
// Eq. 4, and queries-per-second accounting (§VIII-A).
package metrics

import "time"

// Recall computes Recall@k(k') = |R ∩ G| / k' for one query, where result
// holds the returned object IDs (R, len ≤ k) and truth the ground-truth
// IDs (G, len = k'). An empty ground truth yields 0.
func Recall(result, truth []int) float64 {
	if len(truth) == 0 {
		return 0
	}
	in := make(map[int]struct{}, len(truth))
	for _, id := range truth {
		in[id] = struct{}{}
	}
	hits := 0
	for _, id := range result {
		if _, ok := in[id]; ok {
			hits++
			delete(in, id) // count duplicates in result only once
		}
	}
	return float64(hits) / float64(len(truth))
}

// SME computes the similarity measurement error of Eq. 4 for one query:
// 1 − IP(ϕ0(a0), ϕ0(r0)), where aSim is the target-modality inner product
// between the ground-truth object and the returned object. Callers pass
// the precomputed IP because only they know the vectors.
func SME(ip float32) float64 {
	return 1 - float64(ip)
}

// QPS converts a query count and total elapsed search time into queries
// per second (#q/τ, §VIII-A).
func QPS(queries int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(queries) / elapsed.Seconds()
}

// Series is one (recall, qps) trade-off point, a sample of the curves in
// Fig. 6, 8 and 10.
type Point struct {
	// Param is the knob that produced the point (the beam width l).
	Param int
	// Recall is the mean recall at this setting.
	Recall float64
	// QPS is the measured throughput at this setting.
	QPS float64
	// Latency is the mean per-query response time.
	Latency time.Duration
	// Evals is the mean number of full joint evaluations per query, a
	// count of work that machine load cannot move (0 where not counted).
	Evals float64
}
