package vec

import "unsafe"

// Kernel dispatch for the two inner multiply-add sweeps that dominate the
// search and build hot paths: the float32·float32 dot product (graph
// build, FlatScanner) and the int16·uint8 integer dot product (the SQ8
// quantized scanner). On amd64 with AVX2 and on arm64 (NEON is baseline)
// an assembly kernel is installed at init; everywhere else — and always
// under the `purego` build tag — the pure-Go reference below runs.
//
// Bit-exactness contract: on finite inputs every implementation of a
// kernel must produce the exact same result, bit for bit. A NaN input
// gives a NaN result whose payload is unspecified (it follows instruction
// operand order); nothing upstream relies on it, because stored rows,
// queries and weights are all checked to be finite before they reach a
// kernel.
//
// For the float32 kernel the reference fixes the accumulation schedule
// the assembly mirrors:
//
//   - the vector body consumes 8 lanes per step into 8 independent
//     accumulators s0..s7 (lane j only ever accumulates elements with
//     index ≡ j mod 8), with the product rounded before the add (no FMA);
//   - the lanes reduce as s = ((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7)),
//     which is one 8→4 halving add followed by two pairwise adds — the
//     cheapest shape on both AVX2 (VEXTRACTF128+VADDPS, then VHADDPS)
//     and NEON (FADD, then two FADDPs);
//   - the ≤7-element tail accumulates sequentially into s, again with
//     the product rounded separately.
//
// The explicit float32(x*y) conversions are load-bearing: the Go spec
// permits fusing a multiply-add across statements unless an explicit
// conversion forces the intermediate rounding, and the arm64 compiler
// does emit FMADD for unannotated s += x*y. Fused accumulation would
// diverge from the non-FMA assembly path in the last ULP.
//
// The integer kernel needs no schedule at all: int32 addition is
// associative and every int16·uint8 product is exact, so any lane count,
// unroll, or reduction order yields the identical sum — which is exactly
// why the quantized scanner quantizes the query to int16 instead of
// multiplying float32 by widened codes. It also buys AVX2 VPMADDWD (16
// codes per instruction, 1-cycle accumulate chain) over the much slower
// widen-to-float32-then-VADDPS shape. Overflow is the caller's contract:
// Σ |q[i]|·c[i] must stay within int32, which SQ8Scanner.Reset
// guarantees by capping the query quantization scale (see sq8MaxQ).
//
// Search routing makes discrete decisions (candidate ordering, the
// Lemma 4 early exit) on these sums, so "close" is not enough: the
// purego fallback, the AVX2 path, and the NEON path must route
// identically or result sets drift across platforms. kernel_test.go
// fuzzes the boundary.

// dotImpl and dotCodesImpl are the installed kernels. They are function
// variables (not build-tag-selected functions) so the amd64 init can
// choose at runtime between AVX2 and the reference based on CPUID, and
// so tests can force the reference to cross-check the assembly.
var (
	dotImpl      = dotGeneric
	dotCodesImpl = dotCodesGeneric
	// kernelName names the installed kernel for Stats/ops visibility.
	kernelName = "go"
)

// KernelName reports which dot-kernel implementation is serving this
// process: "avx2", "neon", or "go" (the pure-Go reference, also forced
// by the `purego` build tag or a CPU without the required features).
func KernelName() string { return kernelName }

// prefetchImpl issues a read prefetch hint for every cache line in
// [p, p+n). Purely advisory — the pure-Go fallback is a no-op, and the
// assembly versions (PREFETCHT0 / PRFM PLDL1KEEP) never fault, so
// callers need no alignment or residency guarantees beyond the span
// being valid memory.
var prefetchImpl = func(p unsafe.Pointer, n uintptr) {}

// PrefetchBytes hints that b will be scanned shortly. The quantized
// routing loop calls it on each SQ8 code row while gathering a hop's
// candidate batch: 768 B rows are too short for the hardware streamer,
// so without the hint every integer sweep stalls on a cold row. (float32
// rows get none — see the hop loop in internal/search.)
func PrefetchBytes(b []uint8) {
	if len(b) > 0 {
		prefetchImpl(unsafe.Pointer(&b[0]), uintptr(len(b)))
	}
}

// dotRows4Impl is the installed multi-row float32 kernel: four rows
// against one query per call, d_i = dotImpl(q, r_i[:len(q)]) bit for bit.
// A single row's 8 lane sums live in one vector register, so its dot is a
// chain of len/8 dependent adds and the core idles for the add latency at
// every step; four rows are four independent chains behind one query
// load, which hides that latency without touching any row's schedule (a
// second accumulator for the same row would change its bits). The AVX2
// version is assembly; everywhere else the entry point composes four
// calls of the installed single-row kernel, identical by construction.
// Every r_i must point at len(q) readable floats.
var dotRows4Impl = dotRows4Composed

func dotRows4Composed(q []float32, r0, r1, r2, r3 *float32) (d0, d1, d2, d3 float32) {
	n := len(q)
	return dotImpl(q, unsafe.Slice(r0, n)), dotImpl(q, unsafe.Slice(r1, n)),
		dotImpl(q, unsafe.Slice(r2, n)), dotImpl(q, unsafe.Slice(r3, n))
}

// DotRows scores rows of a packed arena against one query, four per
// kernel call: out[i] = Dot(q, arena[ids[i]*stride:][:len(q)]), each
// bit-identical to the single-row kernel. The graph build's one-to-many
// loops and the routing beam searches score a vertex's whole candidate
// list through it. A packed arena is a store that is all bulk block, so
// the block-and-tail driver is FlatStore.DotRows and lives only there.
func DotRows(q, arena []float32, stride int, ids []int32, out []float32) {
	st := FlatStore{bulk: arena, rowDim: stride, bulkCap: len(arena) / stride}
	st.DotRows(q, 0, ids, out)
}

// dotGeneric is the reference float32 dot kernel. Both slices must have
// the same length (callers pass matched sub-slices of packed rows).
func dotGeneric(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
		s4 += float32(a[i+4] * b[i+4])
		s5 += float32(a[i+5] * b[i+5])
		s6 += float32(a[i+6] * b[i+6])
		s7 += float32(a[i+7] * b[i+7])
	}
	t0 := s0 + s4
	t1 := s1 + s5
	t2 := s2 + s6
	t3 := s3 + s7
	s := (t0 + t1) + (t2 + t3)
	for ; i < len(a); i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// dotCodesGeneric is the reference int16·uint8 dot kernel:
// Σ int32(q[i])·int32(c[i]). Exact integer arithmetic — the unroll below
// is for speed only; any order gives the same sum. Both slices must have
// the same length.
func dotCodesGeneric(q []int16, c []uint8) int32 {
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(c); i += 4 {
		s0 += int32(q[i]) * int32(c[i])
		s1 += int32(q[i+1]) * int32(c[i+1])
		s2 += int32(q[i+2]) * int32(c[i+2])
		s3 += int32(q[i+3]) * int32(c[i+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(c); i++ {
		s += int32(q[i]) * int32(c[i])
	}
	return s
}
