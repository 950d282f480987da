package vec

import (
	"math"
	"math/rand"
	"testing"
)

func randomMulti(rng *rand.Rand, dims []int) Multi {
	out := make(Multi, len(dims))
	for i, d := range dims {
		out[i] = RandUnit(rng, d)
	}
	return out
}

// Round trip: Multi → flat row → Multi must be exact, and the store's
// views must alias the packed buffer, not copy it.
func TestFlatStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dims := []int{24, 12, 7}
	objects := make([]Multi, 9)
	for i := range objects {
		objects[i] = randomMulti(rng, dims)
	}
	st := FlatFromMulti(objects)
	if st.Len() != len(objects) || st.Modalities() != len(dims) || st.RowDim() != 43 {
		t.Fatalf("store shape: len=%d m=%d rowDim=%d", st.Len(), st.Modalities(), st.RowDim())
	}
	for i, o := range objects {
		got := st.Multi(i)
		for m := range dims {
			for j := range o[m] {
				if got[m][j] != o[m][j] {
					t.Fatalf("object %d modality %d coord %d: %v != %v", i, m, j, got[m][j], o[m][j])
				}
			}
			if &got[m][0] != &st.Row(i)[st.offs[m]] {
				t.Fatalf("object %d modality %d view does not alias the packed row", i, m)
			}
		}
	}
	// Append after the fact and round-trip the new row too.
	extra := randomMulti(rng, dims)
	id := st.AppendMulti(extra)
	if id != len(objects) {
		t.Fatalf("append id = %d, want %d", id, len(objects))
	}
	back := st.Multi(id)
	for m := range dims {
		for j := range extra[m] {
			if back[m][j] != extra[m][j] {
				t.Fatalf("appended object modality %d differs", m)
			}
		}
	}
}

func TestFlatFromMultiEmpty(t *testing.T) {
	if st := FlatFromMulti(nil); st != nil {
		t.Fatalf("empty pack returned non-nil store")
	}
}

func TestFlatStorePackQueryMissingModality(t *testing.T) {
	st := NewFlatStore([]int{3, 2}, 0)
	row := st.PackQuery(Multi{[]float32{1, 2, 3}, nil})
	want := []float32{1, 2, 3, 0, 0}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("packed query = %v, want %v", row, want)
		}
	}
}

// The fused kernel must agree with the naive per-modality Lemma 1 sum
// within 1e-5 on normalized vectors, across weight shapes including zero
// and missing (short-weight-vector) modalities.
func TestFlatScannerMatchesNaiveJointIP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := []int{16, 9, 5}
	objects := make([]Multi, 64)
	for i := range objects {
		objects[i] = randomMulti(rng, dims)
	}
	st := FlatFromMulti(objects)
	weightSets := []Weights{
		{0.8, 0.6, 0.3},
		{1, 0, 0.5}, // zero-weight modality skipped
		{0.7, 0.7},  // modality beyond len(w) skipped
		Uniform(3),
	}
	for wi, w := range weightSets {
		q := randomMulti(rng, dims)
		fs := NewFlatScanner(st, w, q)
		for i := range objects {
			naive := float64(JointIP(w, q, objects[i]))
			fused := float64(fs.FullIP(st.Row(i)))
			if math.Abs(naive-fused) > 1e-5 {
				t.Fatalf("weights %d object %d: fused %v vs naive %v (Δ=%g)", wi, i, fused, naive, math.Abs(naive-fused))
			}
		}
	}
}

// Scan run to completion must equal FullIP bit-for-bit (the search relies
// on the optimized and unoptimized paths agreeing exactly), and an early
// exit must only happen when the returned bound is at or below threshold.
func TestFlatScannerScanConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dims := []int{12, 8, 4}
	objects := make([]Multi, 128)
	for i := range objects {
		objects[i] = randomMulti(rng, dims)
	}
	st := FlatFromMulti(objects)
	w := Weights{0.9, 0.5, 0.4}
	q := randomMulti(rng, dims)
	fs := NewFlatScanner(st, w, q)
	neverExit := float32(math.Inf(-1))
	exits := 0
	for i := range objects {
		full := fs.FullIP(st.Row(i))
		got, exact := fs.Scan(st.Row(i), neverExit)
		if !exact || got != full {
			t.Fatalf("object %d: Scan(-inf) = (%v,%v), FullIP = %v", i, got, exact, full)
		}
		threshold := full + 0.01 // force at least the final check to fail
		bound, exact := fs.Scan(st.Row(i), threshold)
		if exact {
			t.Fatalf("object %d: Scan with threshold above exact IP reported exact", i)
		}
		if bound > threshold {
			t.Fatalf("object %d: early-exit bound %v exceeds threshold %v", i, bound, threshold)
		}
		if bound < full-1e-6 {
			t.Fatalf("object %d: bound %v below exact IP %v — not an upper-bound exit", i, bound, full)
		}
		exits++
	}
	if exits == 0 {
		t.Fatal("no early exits exercised")
	}
}

// The blocked path must be Scan and FullIP, bit for bit and decision for
// decision: for batches of every size around the block width, with rows in
// the bulk block and in overflow chunks, repeated rows, 1–3 modalities, a
// zero-weight modality and dims with tails, ScanAt(i, thr) after
// Prescore(start) equals Scan(row, thr) for every walk threshold at or
// above the start threshold (within a routing hop it only rises), and
// FullIPAt equals FullIP after an unpruned Prescore.
func TestPrescoreMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, tc := range []struct {
		dims []int
		w    Weights
	}{
		{[]int{19}, Weights{1}},
		{[]int{13, 7}, Weights{0.8, 0.6}},
		{[]int{64, 32}, Weights{0.8, 0.6}},
		{[]int{13, 7, 24}, Weights{0.8, 0.5, 0.3}},
		{[]int{13, 7, 24}, Weights{0.8, 0, 0.3}},
		{[]int{9, 5}, Weights{0.7}},
		{[]int{9, 5}, Weights{0, 0}},
	} {
		st := NewFlatStore(tc.dims, 40) // rows 40.. land in overflow chunks
		for i := 0; i < 300; i++ {
			st.AppendMulti(randomMulti(rng, tc.dims))
		}
		var fs, ref FlatScanner
		for trial := 0; trial < 40; trial++ {
			q := randomMulti(rng, tc.dims)
			fs.Reset(st, tc.w, q)
			ref.Reset(st, tc.w, q)
			ids := make([]int32, trial%11)
			for i := range ids {
				ids[i] = int32(rng.Intn(st.Len()))
			}
			if len(ids) > 2 {
				ids[len(ids)-1] = ids[0]
			}
			// Thresholds drawn from the batch's own bounds and IPs, so the
			// checks land on both sides of every segment of some row.
			var cuts []float32
			for _, id := range ids {
				full := ref.FullIP(st.Row(int(id)))
				bound, _ := ref.Scan(st.Row(int(id)), full+0.05)
				cuts = append(cuts, full, bound, full-0.01)
			}
			cuts = append(cuts, float32(math.Inf(-1)), ref.SumW2(), float32(math.NaN()))
			for _, start := range cuts {
				fs.Prescore(st, ids, start, true)
				for _, thr := range cuts {
					if start == start && !(thr >= start) {
						continue // below a (non-NaN) start: not a walk threshold
					}
					for i, id := range ids {
						wantIP, wantExact := ref.Scan(st.Row(int(id)), thr)
						gotIP, gotExact := fs.ScanAt(i, thr)
						if gotExact != wantExact || math.Float32bits(gotIP) != math.Float32bits(wantIP) {
							t.Fatalf("dims %v w %v start %v: ScanAt(%d, %v) = (%v,%v), Scan = (%v,%v)",
								tc.dims, tc.w, start, i, thr, gotIP, gotExact, wantIP, wantExact)
						}
					}
				}
			}
			fs.Prescore(st, ids, ref.SumW2(), false)
			for i, id := range ids {
				if got, want := fs.FullIPAt(i), ref.FullIP(st.Row(int(id))); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("dims %v w %v: FullIPAt(%d) = %v, FullIP = %v", tc.dims, tc.w, i, got, want)
				}
				wantIP, wantExact := ref.Scan(st.Row(int(id)), cuts[0])
				if gotIP, gotExact := fs.ScanAt(i, cuts[0]); gotExact != wantExact || gotIP != wantIP {
					t.Fatalf("dims %v w %v: unpruned ScanAt(%d) = (%v,%v), Scan = (%v,%v)",
						tc.dims, tc.w, i, gotIP, gotExact, wantIP, wantExact)
				}
			}
		}
	}
}

// Uniform weights must square-sum to exactly 1.0 after the float64
// renormalization — the precision-drift fix for the weights path.
func TestUniformSquaredSumExact(t *testing.T) {
	for m := 1; m <= 16; m++ {
		w := Uniform(m)
		if got := w.SumSquared(); got != 1 {
			t.Errorf("m=%d: Uniform squared sum = %.9f, want exactly 1", m, got)
		}
		for i := 1; i < m; i++ {
			ratio := float64(w[i]) / float64(w[0])
			if math.Abs(ratio-1) > 1e-6 {
				t.Errorf("m=%d: weights not equal after renorm: %v", m, w)
			}
		}
	}
}

func TestRenormalizeHitsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(8)
		w := make(Weights, m)
		for i := range w {
			w[i] = float32(rng.Float64()*3 + 0.01)
		}
		target := float64(1 + rng.Intn(3))
		w.Renormalize(target)
		if got := float64(w.SumSquared()); math.Abs(got-target) > 1e-6 {
			t.Fatalf("trial %d: Σω² = %v, want %v", trial, got, target)
		}
	}
	// Degenerate input resets to equal weights at the target scale.
	w := Weights{0, 0, 0}
	w.Renormalize(3)
	for _, x := range w {
		if x != 1 {
			t.Fatalf("degenerate renorm = %v, want all 1", w)
		}
	}
}

// --- Kernel benchmarks: fused flat sweep vs naive per-modality sum. ---

func benchKernelSetup(b *testing.B) (*FlatStore, []Multi, Weights, Multi) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	dims := []int{256, 64}
	objects := make([]Multi, 1024)
	for i := range objects {
		objects[i] = randomMulti(rng, dims)
	}
	return FlatFromMulti(objects), objects, Weights{0.8, 0.6}, randomMulti(rng, dims)
}

func BenchmarkKernelFusedFlat(b *testing.B) {
	st, _, w, q := benchKernelSetup(b)
	fs := NewFlatScanner(st, w, q)
	b.ResetTimer()
	var acc float32
	for i := 0; i < b.N; i++ {
		acc += fs.FullIP(st.Row(i % st.Len()))
	}
	sinkF32 = acc
}

func BenchmarkKernelNaiveJointIP(b *testing.B) {
	_, objects, w, q := benchKernelSetup(b)
	b.ResetTimer()
	var acc float32
	for i := 0; i < b.N; i++ {
		acc += JointIP(w, q, objects[i%len(objects)])
	}
	sinkF32 = acc
}

var sinkF32 float32

// Appends must never invalidate previously returned views: the arena is
// chunked, so growing the store past any capacity leaves every existing
// row exactly where it was. This is the property that lets one store be
// shared by the collection, the index, and every searcher while the
// engine keeps inserting.
func TestFlatStoreAppendKeepsViewsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := []int{8, 5}
	st := NewFlatStore(dims, 3) // tiny bulk so appends spill into chunks fast
	var first Multi
	var snapshots []struct {
		id  int
		ptr *float32
		val float32
	}
	for i := 0; i < 5000; i++ {
		o := randomMulti(rng, dims)
		id := st.AppendMulti(o)
		if id != i {
			t.Fatalf("append id = %d, want %d", id, i)
		}
		if i == 0 {
			first = st.Multi(0)
		}
		if i%977 == 0 {
			row := st.Row(i)
			snapshots = append(snapshots, struct {
				id  int
				ptr *float32
				val float32
			}{i, &row[0], row[0]})
		}
	}
	for _, snap := range snapshots {
		row := st.Row(snap.id)
		if &row[0] != snap.ptr {
			t.Fatalf("row %d moved after later appends", snap.id)
		}
		if row[0] != snap.val {
			t.Fatalf("row %d value changed after later appends", snap.id)
		}
	}
	if &first[0][0] != &st.Row(0)[0] {
		t.Fatal("early Multi view no longer aliases row 0")
	}
}

// An adopted arena must be served zero-copy, and appends after adoption
// must land in overflow chunks without touching the adopted block.
func TestFlatStoreFromArenaGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dims := []int{6, 4}
	arena := make([]float32, 10*10)
	for i := range arena {
		arena[i] = float32(rng.NormFloat64())
	}
	st := FlatStoreFromArena(dims, arena)
	if st.Len() != 10 {
		t.Fatalf("adopted %d rows, want 10", st.Len())
	}
	if &st.Row(4)[0] != &arena[40] {
		t.Fatal("adopted rows are not zero-copy")
	}
	keep := st.Row(9)
	keepPtr, keepVal := &keep[0], keep[0]
	for i := 0; i < 300; i++ {
		st.AppendMulti(randomMulti(rng, dims))
	}
	if st.Len() != 310 {
		t.Fatalf("store len = %d after appends, want 310", st.Len())
	}
	if &st.Row(9)[0] != keepPtr || st.Row(9)[0] != keepVal {
		t.Fatal("adopted row moved or changed after post-adoption appends")
	}
	if &st.Row(4)[0] != &arena[40] {
		t.Fatal("adopted block no longer aliased after appends")
	}
}

// Snapshot pins the length: appends to the original are invisible to the
// snapshot, while all shared rows stay readable through it.
func TestFlatStoreSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	dims := []int{7}
	st := NewFlatStore(dims, 0)
	for i := 0; i < 20; i++ {
		st.AppendMulti(randomMulti(rng, dims))
	}
	snap := st.Snapshot()
	want := Clone(snap.Row(13))
	for i := 0; i < 4000; i++ {
		st.AppendMulti(randomMulti(rng, dims))
	}
	if snap.Len() != 20 {
		t.Fatalf("snapshot len = %d, want pinned 20", snap.Len())
	}
	got := snap.Row(13)
	for j := range want {
		if got[j] != want[j] {
			t.Fatal("snapshot row changed after appends to the original")
		}
	}
	if st.Len() != 4020 {
		t.Fatalf("original len = %d, want 4020", st.Len())
	}
}

// Runs must cover exactly the filled arena in row order, and the memory
// accounting must stay within one overflow chunk of the raw payload.
func TestFlatStoreRunsAndMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	dims := []int{9, 3}
	st := NewFlatStore(dims, 7)
	var want []float32
	for i := 0; i < 2500; i++ {
		o := randomMulti(rng, dims)
		st.AppendMulti(o)
		for _, v := range o {
			want = append(want, v...)
		}
	}
	var got []float32
	if err := st.Runs(func(run []float32) error { got = append(got, run...); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("runs covered %d floats, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("runs float %d differs", i)
		}
	}
	raw := int64(st.Len()) * int64(st.RowDim()) * 4
	if mem := st.MemoryBytes(); mem < raw || mem > raw+4*chunkTargetFloats*2 {
		t.Fatalf("memory %d bytes for %d raw, want within one chunk of slack", mem, raw)
	}
}
