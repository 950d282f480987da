package main

import (
	"math"
	"strings"
	"testing"
)

func TestSummaryMedianAndTail(t *testing.T) {
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = float64(2000 - i) // 2000..1, unsorted
	}
	s := summarize(vals)
	if s.N() != 2000 {
		t.Fatalf("N = %d, want 2000", s.N())
	}
	if got := s.Median(); got != 1000 {
		t.Errorf("median = %v, want 1000", got)
	}
	p99, ok := s.Quantile(0.99)
	if !ok || p99 != 1980 {
		t.Errorf("p99 = %v ok=%v, want 1980 with 20 samples beyond it", p99, ok)
	}
	if str := s.String(); !strings.Contains(str, "n=2000") || strings.Contains(str, "n/a") {
		t.Errorf("String() = %q, want a p99 and n=2000", str)
	}
}

// A percentile with fewer than ten samples beyond it is refused: the value
// is still returned, flagged, and prints as n/a.
func TestSummaryRefusesThinTail(t *testing.T) {
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	s := summarize(vals)
	if _, ok := s.Quantile(0.99); ok {
		t.Error("p99 of 500 samples has 5 beyond it and must be refused")
	}
	if _, ok := s.Quantile(0.5); !ok {
		t.Error("median of 500 samples must be accepted")
	}
	if _, ok := s.Quantile(0.98); !ok {
		t.Error("p98 of 500 samples has exactly 10 beyond it and must be accepted")
	}
	if _, ok := s.Quantile(0.01); ok {
		t.Error("p1 of 500 samples has 4 below it and must be refused")
	}
	if str := s.String(); !strings.Contains(str, "p99=n/a") {
		t.Errorf("String() = %q, want p99=n/a", str)
	}
	if v, ok := (summary{}).Quantile(0.5); ok || v != 0 {
		t.Errorf("empty summary: got %v ok=%v", v, ok)
	}
}

// quartiles must match Python's statistics.quantiles(values, n=4), which
// is what the driver applies to ten runs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
