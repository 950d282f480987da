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

func TestFrontier(t *testing.T) {
	pts := []Point{
		{Param: 1, Recall: 0.5, QPS: 1000},
		{Param: 2, Recall: 0.7, QPS: 500},
		{Param: 3, Recall: 0.6, QPS: 300}, // dominated by param 2
		{Param: 4, Recall: 0.9, QPS: 100},
	}
	f := Frontier(pts)
	if len(f) != 3 {
		t.Fatalf("frontier size = %d, want 3: %+v", len(f), f)
	}
	for i := 1; i < len(f); i++ {
		if f[i].Recall < f[i-1].Recall {
			t.Error("frontier not sorted by recall")
		}
		if f[i].QPS > f[i-1].QPS {
			t.Error("frontier QPS must be non-increasing in recall")
		}
	}
	for _, p := range f {
		if p.Param == 3 {
			t.Error("dominated point survived")
		}
	}
}

func TestFrontierEmptyAndSingle(t *testing.T) {
	if f := Frontier(nil); len(f) != 0 {
		t.Error("empty frontier not empty")
	}
	f := Frontier([]Point{{Recall: 0.1, QPS: 1}})
	if len(f) != 1 {
		t.Error("single-point frontier lost its point")
	}
}
