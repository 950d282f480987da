//go:build amd64 && !purego

package vec

import "unsafe"

// The AVX2 kernels live in kernel_amd64.s. They are selected at runtime:
// AVX2 needs both the CPUID feature bit and OS support for saving YMM
// state (OSXSAVE + XCR0 bits 1:2), probed by the tiny assembly helpers
// below. CPUs without AVX2 — or binaries built with -tags purego — stay
// on the pure-Go reference kernels.

// dotAVX2 computes the float32 dot product of a and b with the shared
// 8-lane accumulation schedule. len(a) must equal len(b).
func dotAVX2(a, b []float32) float32

// dotRows4AVX2 computes dotAVX2(q, r_i[:len(q)]) for four rows at once,
// sharing the query loads; every r_i must point at len(q) readable floats.
func dotRows4AVX2(q []float32, r0, r1, r2, r3 *float32) (d0, d1, d2, d3 float32)

// dotCodesAVX2 computes the exact integer dot Σ int32(q[i])·int32(c[i])
// via VPMADDWD (16 codes per step). len(q) must equal len(c); the caller
// guarantees the sum fits int32 (see kernel.go).
func dotCodesAVX2(q []int16, c []uint8) int32

// prefetchSpan issues PREFETCHT0 for each cache line in [p, p+n).
// Prefetch needs no CPU feature probe — it has been architectural since
// SSE and is a hint the CPU may ignore, so init installs it whenever the
// assembly kernels are compiled in (i.e. not under -tags purego).
func prefetchSpan(p unsafe.Pointer, n uintptr)

// cpuidex returns CPUID leaf/subleaf output registers.
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low 32 bits of XCR0 (extended control register 0).
func xgetbv0() uint32

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves YMM state on context
	// switch. Without this, using YMM registers corrupts other threads.
	if xgetbv0()&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func init() {
	prefetchImpl = prefetchSpan
	if hasAVX2() {
		dotImpl = dotAVX2
		dotRows4Impl = dotRows4AVX2
		dotCodesImpl = dotCodesAVX2
		kernelName = "avx2"
	}
}
