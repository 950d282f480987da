package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-4

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDotBasic(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float32
	}{
		{[]float32{1, 2, 3}, []float32{4, 5, 6}, 32},
		{[]float32{0, 0}, []float32{1, 1}, 0},
		{[]float32{1}, []float32{-1}, -1},
		{[]float32{}, []float32{}, 0},
		{[]float32{1, 1, 1, 1, 1}, []float32{2, 2, 2, 2, 2}, 10}, // crosses the unroll boundary
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched dims did not panic")
		}
	}()
	Dot([]float32{1, 2}, []float32{1})
}

func TestSquaredL2Basic(t *testing.T) {
	got := SquaredL2([]float32{1, 2, 3, 4, 5}, []float32{0, 0, 0, 0, 0})
	if got != 55 {
		t.Errorf("SquaredL2 = %v, want 55", got)
	}
	if d := SquaredL2([]float32{1, 2}, []float32{1, 2}); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if !approxEq(float64(v[0]), 0.6, eps) || !approxEq(float64(v[1]), 0.8, eps) {
		t.Errorf("Normalize = %v, want [0.6 0.8]", v)
	}
	z := []float32{0, 0, 0}
	Normalize(z)
	for _, x := range z {
		if x != 0 {
			t.Errorf("zero vector changed by Normalize: %v", z)
		}
	}
}

func TestNormalizedDoesNotMutate(t *testing.T) {
	v := []float32{3, 4}
	u := Normalized(v)
	if v[0] != 3 || v[1] != 4 {
		t.Errorf("Normalized mutated input: %v", v)
	}
	if !approxEq(float64(Norm(u)), 1, eps) {
		t.Errorf("Normalized output norm = %v, want 1", Norm(u))
	}
}

// Property: IP(a, b) = 1 - 0.5*||a-b||^2 for unit vectors (Eq. 8).
func TestIPDistanceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandUnit(r, 37)
		b := RandUnit(r, 37)
		ip := float64(Dot(a, b))
		d2 := float64(SquaredL2(a, b))
		return approxEq(ip, 1-0.5*d2, 1e-3)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property (Lemma 1): joint IP of the weighted concatenation equals the
// weighted sum of per-modality IPs.
func TestLemma1ConcatEqualsWeightedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int{8, 16, 5}
		w := Weights{float32(r.Float64()), float32(r.Float64()), float32(r.Float64())}
		a := make(Multi, len(dims))
		b := make(Multi, len(dims))
		for i, d := range dims {
			a[i] = RandUnit(r, d)
			b[i] = RandUnit(r, d)
		}
		lhs := float64(Dot(WeightedConcat(w, a), WeightedConcat(w, b)))
		rhs := float64(JointIP(w, a, b))
		return approxEq(lhs, rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property (Lemma 4): the fused scanner's Scan either returns the exact
// joint IP, or an upper bound that is at most the discard threshold — in
// which case the exact IP is also at most the threshold, so discarding is
// safe.
func TestLemma4PartialIPSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int{12, 7, 9, 4}
		w := Weights{0.8, 0.33, 0.5, 0.2}
		q := make(Multi, len(dims))
		u := make(Multi, len(dims))
		for i, d := range dims {
			q[i] = RandUnit(r, d)
			u[i] = RandUnit(r, d)
		}
		st := FlatFromMulti([]Multi{u})
		s := NewFlatScanner(st, w, q)
		exactIP := JointIP(w, q, u)
		threshold := float32(r.Float64()*2 - 1)
		got, exact := s.Scan(st.Row(0), threshold)
		if exact {
			// Exact path must match the full computation and exceed the
			// threshold.
			return approxEq(float64(got), float64(exactIP), 1e-3) && got > threshold
		}
		// Early-terminated path: the bound must not exceed the threshold
		// and the true IP must also be <= bound (safe discard).
		return got <= threshold && exactIP <= got+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// The scanner's FullIP must agree with JointIP computed directly.
func TestScannerFullIPMatchesJointIP(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	w := Weights{0.7, 0.7}
	q := Multi{RandUnit(r, 24), RandUnit(r, 16)}
	u := Multi{RandUnit(r, 24), RandUnit(r, 16)}
	st := FlatFromMulti([]Multi{u})
	s := NewFlatScanner(st, w, q)
	if got, want := float64(s.FullIP(st.Row(0))), float64(JointIP(w, q, u)); !approxEq(got, want, 1e-3) {
		t.Errorf("FullIP = %v, JointIP = %v", got, want)
	}
}

func TestJointIPSkipsZeroWeightAndMissingModalities(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := Multi{RandUnit(r, 8), RandUnit(r, 8), RandUnit(r, 8)}
	b := Multi{RandUnit(r, 8), RandUnit(r, 8), RandUnit(r, 8)}
	// Zero weight on modality 1 and no weight entry for modality 2.
	w := Weights{1, 0}
	got := JointIP(w, a, b)
	want := Dot(a[0], b[0])
	if !approxEq(float64(got), float64(want), eps) {
		t.Errorf("JointIP with zero/missing weights = %v, want %v", got, want)
	}
}

func TestUniformWeightsSquareSumToOne(t *testing.T) {
	for m := 1; m <= 6; m++ {
		w := Uniform(m)
		if !approxEq(float64(w.SumSquared()), 1, eps) {
			t.Errorf("Uniform(%d) square sum = %v, want 1", m, w.SumSquared())
		}
	}
}

func TestWeightedConcatLayout(t *testing.T) {
	a := Multi{{1, 2}, {3}}
	w := Weights{2, 10}
	got := WeightedConcat(w, a)
	want := []float32{2, 4, 30}
	if len(got) != len(want) {
		t.Fatalf("WeightedConcat len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("WeightedConcat[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConcatAndClone(t *testing.T) {
	c := Concat([]float32{1}, []float32{2, 3}, nil, []float32{4})
	want := []float32{1, 2, 3, 4}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("Concat = %v, want %v", c, want)
		}
	}
	v := []float32{1, 2}
	cl := Clone(v)
	cl[0] = 9
	if v[0] != 1 {
		t.Error("Clone aliases input")
	}
}

func TestAXPYAndScaleAndAdd(t *testing.T) {
	y := []float32{1, 1}
	AXPY(2, []float32{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY = %v, want [7 9]", y)
	}
	s := Scale(3, []float32{1, 2})
	if s[0] != 3 || s[1] != 6 {
		t.Errorf("Scale = %v", s)
	}
	a := Add([]float32{1, 2}, []float32{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Errorf("Add = %v", a)
	}
}

func TestRandUnitIsUnit(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 20; i++ {
		v := RandUnit(r, 33)
		if !approxEq(float64(Norm(v)), 1, eps) {
			t.Errorf("RandUnit norm = %v", Norm(v))
		}
	}
}

func TestAddGaussianNoiseSimilarityDecreasesWithSigma(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base := RandUnit(r, 64)
	var simLow, simHigh float64
	const trials = 50
	for i := 0; i < trials; i++ {
		simLow += float64(Dot(base, AddGaussianNoise(r, base, 0.02)))
		simHigh += float64(Dot(base, AddGaussianNoise(r, base, 0.5)))
	}
	simLow /= trials
	simHigh /= trials
	if simLow <= simHigh {
		t.Errorf("low-noise similarity %v should exceed high-noise %v", simLow, simHigh)
	}
	if simLow < 0.95 {
		t.Errorf("low-noise similarity %v unexpectedly small", simLow)
	}
}

func TestApplyProjectionShape(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	m := RandProjection(r, 16, 8)
	x := RandUnit(r, 8)
	y := ApplyProjection(m, 16, x)
	if len(y) != 16 {
		t.Fatalf("projection output dim = %d, want 16", len(y))
	}
	if !approxEq(float64(Norm(y)), 1, eps) {
		t.Errorf("projection output norm = %v, want 1", Norm(y))
	}
	// Determinism: same matrix, same input, same output.
	y2 := ApplyProjection(m, 16, x)
	for i := range y {
		if y[i] != y2[i] {
			t.Fatal("ApplyProjection not deterministic")
		}
	}
}

func TestMultiDims(t *testing.T) {
	m := Multi{make([]float32, 3), make([]float32, 5)}
	d := m.Dims()
	if d[0] != 3 || d[1] != 5 || m.TotalDim() != 8 {
		t.Errorf("Dims = %v, TotalDim = %d", d, m.TotalDim())
	}
}

func BenchmarkDot128(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x := RandUnit(r, 128)
	y := RandUnit(r, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkJointIP(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	w := Weights{0.8, 0.33}
	q := Multi{RandUnit(r, 64), RandUnit(r, 32)}
	u := Multi{RandUnit(r, 64), RandUnit(r, 32)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		JointIP(w, q, u)
	}
}
