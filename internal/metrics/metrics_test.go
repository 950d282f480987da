package metrics

import (
	"math"
	"testing"
	"time"
)

func TestRecall(t *testing.T) {
	cases := []struct {
		name   string
		result []int
		truth  []int
		want   float64
	}{
		{"perfect", []int{1, 2, 3}, []int{1, 2, 3}, 1},
		{"half", []int{1, 9}, []int{1, 2}, 0.5},
		{"none", []int{7, 8}, []int{1, 2}, 0},
		{"empty truth", []int{1}, nil, 0},
		{"empty result", nil, []int{1}, 0},
		{"k bigger than kprime", []int{5, 1, 9, 8}, []int{1}, 1},
		{"duplicate results count once", []int{1, 1, 1}, []int{1, 2}, 0.5},
	}
	for _, c := range cases {
		if got := Recall(c.result, c.truth); got != c.want {
			t.Errorf("%s: Recall = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSME(t *testing.T) {
	if got := SME(1); got != 0 {
		t.Errorf("SME(1) = %v, want 0", got)
	}
	if got := SME(0.6); math.Abs(got-0.4) > 1e-6 {
		t.Errorf("SME(0.6) = %v, want 0.4", got)
	}
}

func TestQPS(t *testing.T) {
	if got := QPS(100, time.Second); got != 100 {
		t.Errorf("QPS = %v, want 100", got)
	}
	if got := QPS(10, 0); got != 0 {
		t.Errorf("QPS with zero elapsed = %v, want 0", got)
	}
}
