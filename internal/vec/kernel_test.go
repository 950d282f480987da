package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forceGeneric swaps the installed kernels for the pure-Go reference and
// returns a restore func. Tests in this package run sequentially, so the
// swap cannot race with other kernel users.
func forceGeneric() (restore func()) {
	d, r, u := dotImpl, dotRows4Impl, dotCodesImpl
	dotImpl, dotRows4Impl, dotCodesImpl = dotGeneric, dotRows4Composed, dotCodesGeneric
	return func() { dotImpl, dotRows4Impl, dotCodesImpl = d, r, u }
}

// sameOrBothNaN is the tolerance any kernel gets against the pure-Go
// reference: identical bit patterns, or both NaN. Which operand's payload
// a NaN result carries follows instruction operand order (x86 keeps the
// first source's), which the Go compiler is free to choose for
// dotGeneric's commutative multiplies and adds.
func sameOrBothNaN(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkDotRows requires the multi-row entry point to equal the installed
// single-row kernel bit for bit, NaN payloads included (dotRows4AVX2 keeps
// dotAVX2's operand order), and the pure-Go reference bit for bit on every
// non-NaN result, for every row of every block shape: it scores rows[:k]
// for k = 0..len(rows) (short last blocks of 1–3 rows included) through
// DotRows, and the first four through the installed kernel directly.
func checkDotRows(t *testing.T, what string, q []float32, rows [][]float32) {
	t.Helper()
	n := len(q)
	same := func(how string, i int, got float32) {
		t.Helper()
		if want := dotImpl(q, rows[i]); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s len=%d %s row %d: %v (%#x) != dotImpl %v (%#x)", what, n, how, i,
				got, math.Float32bits(got), want, math.Float32bits(want))
		}
		if want := dotGeneric(q, rows[i]); !sameOrBothNaN(got, want) {
			t.Fatalf("%s len=%d %s row %d: %v (%#x) != dotGeneric %v (%#x)", what, n, how, i,
				got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	// Pack the rows into one arena at a stride that leaves odd offsets.
	stride := n + 3
	arena := make([]float32, 1+len(rows)*stride)
	ids := make([]int32, len(rows))
	for i, r := range rows {
		copy(arena[1+i*stride:], r)
		ids[i] = int32(i)
	}
	out := make([]float32, len(rows))
	for k := 0; k <= len(rows); k++ {
		for i := range out {
			out[i] = float32(math.NaN())
		}
		DotRows(q, arena[1:], stride, ids[:k], out)
		for i := 0; i < k; i++ {
			same("DotRows", i, out[i])
		}
	}
	if n > 0 && len(rows) >= 4 {
		d0, d1, d2, d3 := dotRows4Impl(q, &rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0])
		for i, d := range []float32{d0, d1, d2, d3} {
			same("dotRows4Impl", i, d)
		}
	}
}

func randInt16(rng *rand.Rand, n int) []int16 {
	out := make([]int16, n)
	for i := range out {
		// Full range of the quantized-query contract (see sq8MaxQ).
		out[i] = int16(rng.Intn(2*sq8MaxQ+1) - sq8MaxQ)
	}
	return out
}

func randFloats(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func randCodes(rng *rand.Rand, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(256))
	}
	return out
}

func TestKernelName(t *testing.T) {
	switch KernelName() {
	case "go", "avx2", "neon":
		t.Logf("installed kernel: %s", KernelName())
	default:
		t.Fatalf("unknown kernel name %q", KernelName())
	}
}

// TestDotKernelBitExact sweeps every length around the unroll/vector-width
// boundary — all tails 0–7 at several multiples of 8, plus everything in
// between — and requires the installed kernel to match the pure-Go
// reference bit for bit. On a purego build (or a CPU without the SIMD
// features) this degenerates to reference-vs-reference, which keeps the
// test meaningful as a determinism check under every build tag.
func TestDotKernelBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 131; n++ {
		a := randFloats(rng, n)
		b := randFloats(rng, n)
		q := randInt16(rng, n)
		c := randCodes(rng, n)
		if got, want := dotImpl(a, b), dotGeneric(a, b); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("dot len=%d: kernel %v (%#x) != reference %v (%#x)",
				n, got, math.Float32bits(got), want, math.Float32bits(want))
		}
		if got, want := dotCodesImpl(q, c), dotCodesGeneric(q, c); got != want {
			t.Fatalf("dotCodes len=%d: kernel %d != reference %d", n, got, want)
		}
		checkDotRows(t, "rows", a, [][]float32{b, randFloats(rng, n), randFloats(rng, n), randFloats(rng, n), randFloats(rng, n), randFloats(rng, n), randFloats(rng, n)})
	}
}

// TestDotRowsShapes covers what the length sweep above does not: the
// production segment lengths, query and rows that are sub-slices at odd
// offsets of larger buffers, and the same row passed in several slots of
// one block.
func TestDotRowsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 7, 8, 9, 96, 256, 512, 768, 771} {
		buf := randFloats(rng, 5*(n+5))
		q := buf[3 : 3+n]
		r := func(i int) []float32 { return buf[i*(n+5)+1 : i*(n+5)+1+n] }
		checkDotRows(t, "odd offsets", q, [][]float32{r(1), r(2), r(3), r(4), r(1)})
		checkDotRows(t, "repeated row", q, [][]float32{r(2), r(2), r(4), r(2), r(2), r(2)})
		checkDotRows(t, "query as a row", q, [][]float32{q, r(1), q, q})
	}
}

// TestDotKernelExtremes feeds values whose sums are catastrophically
// cancellation-prone — mixed magnitudes across 40 orders, exact negations
// offset by one lane — where any deviation in accumulation order or a
// fused multiply-add shows up in the last ULP.
func TestDotKernelExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			mag := math.Pow(10, float64(rng.Intn(41)-20))
			a[i] = float32(rng.NormFloat64() * mag)
			b[i] = float32(rng.NormFloat64() * mag)
			if i > 0 && rng.Intn(3) == 0 {
				a[i] = -a[i-1] // adjacent-lane cancellation
				b[i] = b[i-1]
			}
		}
		if got, want := dotImpl(a, b), dotGeneric(a, b); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("trial %d len=%d: kernel %v (%#x) != reference %v (%#x)",
				trial, n, got, math.Float32bits(got), want, math.Float32bits(want))
		}
		// The same cancellation-prone row in every slot of a block, next
		// to its negation and to the query itself.
		neg := make([]float32, n)
		for i := range b {
			neg[i] = -b[i]
		}
		checkDotRows(t, "extremes", a, [][]float32{b, neg, a, b, neg})
	}
}

// TestScannerKernelAgreement locks the scanner-level contract: FullIP
// results and Scan's per-segment early-exit decisions must be identical
// between the installed kernel and the pure-Go reference. Modality dims
// are chosen to exercise tails (13 = 8+5, 7 = pure tail, 24 = no tail).
func TestScannerKernelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dims := []int{13, 7, 24}
	st := NewFlatStore(dims, 64)
	for i := 0; i < 64; i++ {
		row := st.AppendRow()
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		Normalize(row[0:13])
		Normalize(row[13:20])
		Normalize(row[20:44])
	}
	w := Weights{0.8, 0.5, 0.3}
	query := Multi{
		Normalized(randFloats(rng, 13)),
		Normalized(randFloats(rng, 7)),
		Normalized(randFloats(rng, 24)),
	}

	kern := NewFlatScanner(st, w, query)
	restore := forceGeneric()
	ref := NewFlatScanner(st, w, query)
	restore()

	for i := 0; i < st.Len(); i++ {
		row := st.Row(i)
		kip := kern.FullIP(row)
		restore2 := forceGeneric()
		rip := ref.FullIP(row)
		restore2()
		if math.Float32bits(kip) != math.Float32bits(rip) {
			t.Fatalf("row %d FullIP: kernel %v != reference %v", i, kip, rip)
		}
		// Thresholds straddling the exact IP exercise both the early-exit
		// and exact outcomes of Scan; the decisions must match exactly.
		for _, thr := range []float32{kip - 0.1, kip - 1e-6, kip, kip + 1e-6, kern.SumW2()} {
			kv, kexact := kern.Scan(row, thr)
			restore3 := forceGeneric()
			rv, rexact := ref.Scan(row, thr)
			restore3()
			if kexact != rexact || math.Float32bits(kv) != math.Float32bits(rv) {
				t.Fatalf("row %d Scan(thr=%v): kernel (%v,%v) != reference (%v,%v)",
					i, thr, kv, kexact, rv, rexact)
			}
		}
	}
}

// FuzzDotKernel drives arbitrary byte patterns — including NaN, Inf and
// denormal encodings — through both kernels. Any non-NaN result where the
// SIMD path and the reference disagree in even one bit is a bug; a NaN
// result must be NaN on both, with an unspecified payload (see kernel.go).
// The multi-row entry point stays strict against the single-row kernel.
func FuzzDotKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 9*8+3) // 9 float pairs + partial tail bytes
	rng := rand.New(rand.NewSource(3))
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		a := make([]float32, n)
		b := make([]float32, n)
		q := make([]int16, n)
		c := make([]uint8, n)
		for i := 0; i < n; i++ {
			a[i] = math.Float32frombits(uint32(data[8*i]) | uint32(data[8*i+1])<<8 |
				uint32(data[8*i+2])<<16 | uint32(data[8*i+3])<<24)
			b[i] = math.Float32frombits(uint32(data[8*i+4]) | uint32(data[8*i+5])<<8 |
				uint32(data[8*i+6])<<16 | uint32(data[8*i+7])<<24)
			q[i] = int16(uint16(data[8*i+5]) | uint16(data[8*i+6])<<8)
			c[i] = data[8*i+4]
		}
		if got, want := dotImpl(a, b), dotGeneric(a, b); !sameOrBothNaN(got, want) {
			t.Fatalf("dot len=%d: kernel %v (%#x) != reference %v (%#x)",
				n, got, math.Float32bits(got), want, math.Float32bits(want))
		}
		if got, want := dotCodesImpl(q, c), dotCodesGeneric(q, c); got != want {
			t.Fatalf("dotCodes len=%d: kernel %d != reference %d", n, got, want)
		}
		// Multi-row entry point on the same payload: b, its reverse and a
		// in the row slots, so NaN/Inf/denormal lanes meet every slot.
		rev := make([]float32, n)
		for i := range b {
			rev[i] = b[n-1-i]
		}
		checkDotRows(t, "fuzz", a, [][]float32{b, rev, a, b, rev})
	})
}

// BenchmarkKernel compares the installed dot kernel (SIMD where the CPU
// has it; named after vec.KernelName) against the pure-Go reference
// schedule, for both the float32 sweep and the SQ8 integer-dot
// sweep (int16 query × uint8 codes), at segment lengths spanning one
// modality to a large fused row. The variant in the sub-benchmark name
// records which kernel produced the numbers; TestDotKernelBitExact, not
// this benchmark, guards that the variants agree.
func BenchmarkKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	impls := []struct {
		name     string
		dot      func(a, bb []float32) float32
		dotCodes func(q []int16, c []uint8) int32
	}{
		{kernelName, dotImpl, dotCodesImpl},
		{"go", dotGeneric, dotCodesGeneric},
	}
	for _, n := range []int{64, 256, 1024} {
		x := randFloats(rng, n)
		y := randFloats(rng, n)
		q := randInt16(rng, n)
		codes := randCodes(rng, n)
		for _, im := range impls {
			b.Run(fmt.Sprintf("dot/%s/n=%d", im.name, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * n))
				var acc float32
				for i := 0; i < b.N; i++ {
					acc += im.dot(x, y)
				}
				sinkF32 = acc
			})
			b.Run(fmt.Sprintf("dotcodes/%s/n=%d", im.name, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(3 * n))
				var acc int32
				for i := 0; i < b.N; i++ {
					acc += im.dotCodes(q, codes)
				}
				sinkI32 = acc
			})
		}
	}
}

var sinkI32 int32

// BenchmarkDotRows prices one 768-d row (the clip8k fused row) scored row
// at a time (x1: dotImpl) and four per kernel call (x4: DotRows), with the
// operands in L1 (cached: 4 rows) and drawn at random from a 24 MB arena
// (random: 8,192 rows, the ladder's corpus size). One op is one row on
// both sides. x1/cached is the single accumulator's add-latency chain;
// x4/random is what a routing hop pays per cold row.
func BenchmarkDotRows(b *testing.B) {
	const dim = 768
	rng := rand.New(rand.NewSource(5))
	q := randFloats(rng, dim)
	for _, res := range []struct {
		name string
		rows int
	}{{"cached", 4}, {"random", 8192}} {
		arena := randFloats(rng, res.rows*dim)
		ids := make([]int32, 1024)
		for i := range ids {
			ids[i] = int32(rng.Intn(res.rows))
		}
		out := make([]float32, 4)
		b.Run("x1/"+res.name, func(b *testing.B) {
			var acc float32
			for i := 0; i < b.N; i++ {
				at := int(ids[i%len(ids)]) * dim
				acc += dotImpl(q, arena[at:at+dim])
			}
			sinkF32 = acc
		})
		b.Run("x4/"+res.name, func(b *testing.B) {
			var acc float32
			for i := 0; i < b.N; i += 4 {
				at := i % len(ids)
				DotRows(q, arena, dim, ids[at:at+4], out)
				acc += out[0]
			}
			sinkF32 = acc
		})
	}
}
