package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer and the estimate is one or two outliers, not a tail.
const minBeyond = 10

// summary is a sorted sample set a median and tail percentiles are read
// from.
type summary struct {
	sorted []float64
}

// summarize sorts samples in place and wraps them.
func summarize(samples []float64) summary {
	sort.Float64s(samples)
	return summary{sorted: samples}
}

// N is the sample count.
func (s summary) N() int { return len(s.sorted) }

// Median is the 0.5 quantile (0 for an empty summary).
func (s summary) Median() float64 {
	v, _ := s.Quantile(0.5)
	return v
}

// Quantile returns the nearest-rank p-quantile. ok is false when fewer than
// minBeyond samples lie beyond it on the tail side (above for p ≥ 0.5,
// below otherwise); the value is still the best estimate available, but a
// report must print it as n/a.
func (s summary) Quantile(p float64) (v float64, ok bool) {
	n := len(s.sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond := n - rank
	if p < 0.5 {
		beyond = rank - 1
	}
	return s.sorted[rank-1], beyond >= minBeyond
}

// String renders median, p99 and the sample count; a p99 with too few
// samples beyond it reads n/a.
func (s summary) String() string {
	p99 := "n/a"
	if v, ok := s.Quantile(0.99); ok {
		p99 = fmt.Sprintf("%.4g", v)
	}
	return fmt.Sprintf("p50=%.4g p99=%s n=%d", s.Median(), p99, s.N())
}

// median of an unsorted slice (copied, so the caller's order survives).
func median(vals []float64) float64 {
	return summarize(append([]float64(nil), vals...)).Median()
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so
// the spreads printed here are the ones the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
