//go:build amd64 && !purego

#include "textflag.h"

// AVX2 dot kernels. dotAVX2 follows the float32 accumulation schedule
// documented in kernel.go: one YMM register holds the 8 lane accumulators s0..s7
// (VMULPS then VADDPS — separate roundings, deliberately no FMA so the
// result matches the pure-Go reference bit for bit), the reduction is
// VEXTRACTF128+VADDPS (t0..t3 = s_j + s_{j+4}) followed by VHADDPS
// ((t0+t1, t2+t3)) and a final scalar add, and the ≤7-element tail
// accumulates sequentially with scalar MULSS/ADDSS.

// func dotAVX2(a, b []float32) float32
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	MOVQ CX, BX
	SHRQ $3, BX        // BX = len/8 vector steps
	JZ   reduce
loop8:
	VMOVUPS (SI), Y1
	VMOVUPS (DI), Y2
	VMULPS  Y2, Y1, Y1
	VADDPS  Y1, Y0, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ BX
	JNZ  loop8
reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS  X1, X0, X0 // (t0, t1, t2, t3)
	VHADDPS X0, X0, X0 // (t0+t1, t2+t3, t0+t1, t2+t3)
	VMOVSHDUP X0, X1   // lane 1 -> lane 0
	VADDSS  X1, X0, X0 // (t0+t1) + (t2+t3)
	VZEROUPPER
	ANDQ $7, CX
	JZ   done
tail:
	MOVSS (SI), X1
	MULSS (DI), X1
	ADDSS X1, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  tail
done:
	MOVSS X0, ret+48(FP)
	RET

// func dotRows4AVX2(q []float32, r0, r1, r2, r3 *float32) (d0, d1, d2, d3 float32)
//
// Four dotAVX2s that share the query loads: row i accumulates in Y<i>
// with dotAVX2's instruction sequence (VMULPS with the query as first
// source, then VADDPS into the lane sums; the same reduction; the same
// scalar tail), so each result is dotAVX2(q, r_i[:len(q)]) bit for bit.
// What changes is what the core waits for: one row is a chain of
// len/8 dependent VADDPS, four rows are four independent chains.
TEXT ·dotRows4AVX2(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ r0+24(FP), R8
	MOVQ r1+32(FP), R9
	MOVQ r2+40(FP), R10
	MOVQ r3+48(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX        // byte offset into q and every row
	MOVQ CX, BX
	SHRQ $3, BX        // BX = len/8 vector steps
	JZ   reduce4
loop4:
	VMOVUPS (SI)(AX*1), Y4
	VMULPS  (R8)(AX*1), Y4, Y5
	VMULPS  (R9)(AX*1), Y4, Y6
	VMULPS  (R10)(AX*1), Y4, Y7
	VMULPS  (R11)(AX*1), Y4, Y8
	VADDPS  Y5, Y0, Y0
	VADDPS  Y6, Y1, Y1
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y3, Y3
	ADDQ $32, AX
	DECQ BX
	JNZ  loop4
reduce4:
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	VADDPS  X4, X0, X0 // (t0, t1, t2, t3) of row 0
	VADDPS  X5, X1, X1
	VADDPS  X6, X2, X2
	VADDPS  X7, X3, X3
	VHADDPS X0, X0, X0 // (t0+t1, t2+t3, ...)
	VHADDPS X1, X1, X1
	VHADDPS X2, X2, X2
	VHADDPS X3, X3, X3
	VMOVSHDUP X0, X4   // lane 1 -> lane 0
	VMOVSHDUP X1, X5
	VMOVSHDUP X2, X6
	VMOVSHDUP X3, X7
	VADDSS  X4, X0, X0 // (t0+t1) + (t2+t3)
	VADDSS  X5, X1, X1
	VADDSS  X6, X2, X2
	VADDSS  X7, X3, X3
	VZEROUPPER
	ANDQ $7, CX
	JZ   done4
tail4:
	MOVSS (SI)(AX*1), X4
	MOVAPS X4, X5
	MOVAPS X4, X6
	MOVAPS X4, X7
	MULSS (R8)(AX*1), X4
	MULSS (R9)(AX*1), X5
	MULSS (R10)(AX*1), X6
	MULSS (R11)(AX*1), X7
	ADDSS X4, X0
	ADDSS X5, X1
	ADDSS X6, X2
	ADDSS X7, X3
	ADDQ $4, AX
	DECQ CX
	JNZ  tail4
done4:
	MOVSS X0, d0+56(FP)
	MOVSS X1, d1+60(FP)
	MOVSS X2, d2+64(FP)
	MOVSS X3, d3+68(FP)
	RET

// func dotCodesAVX2(q []int16, c []uint8) int32
//
// Exact integer dot: the sixteen int16·uint8 products per step reduce
// pairwise to 8 int32 lanes in one VPMADDWD (codes are 0..255, so they
// are non-negative int16 after the zero-extend), and the VPADDD
// accumulate chain has single-cycle latency. No rounding anywhere, so no
// schedule to mirror — any reduction order matches the Go reference.
TEXT ·dotCodesAVX2(SB), NOSPLIT, $0-52
	MOVQ q_base+0(FP), SI
	MOVQ c_base+24(FP), DI
	MOVQ c_len+32(FP), CX
	VPXOR Y0, Y0, Y0
	MOVQ CX, BX
	SHRQ $4, BX        // BX = len/16 vector steps
	JZ   reducei
loopi:
	VPMOVZXBW (DI), Y1    // 16 bytes -> 16 words
	VPMADDWD  (SI), Y1, Y1 // q[2k]·c[2k] + q[2k+1]·c[2k+1] -> 8 dwords
	VPADDD    Y1, Y0, Y0
	ADDQ $32, SI
	ADDQ $16, DI
	DECQ BX
	JNZ  loopi
reducei:
	VEXTRACTI128 $1, Y0, X1
	VPADDD  X1, X0, X0
	VPHADDD X0, X0, X0
	VPHADDD X0, X0, X0
	VMOVD   X0, AX
	VZEROUPPER
	ANDQ $15, CX
	JZ   donei
taili:
	MOVBLZX (DI), DX
	MOVWLSX (SI), R8
	IMULL   R8, DX
	ADDL    DX, AX
	ADDQ $2, SI
	INCQ DI
	DECQ CX
	JNZ  taili
donei:
	MOVL AX, ret+48(FP)
	RET

// func prefetchSpan(p unsafe.Pointer, n uintptr)
//
// One PREFETCHT0 per 64-byte line of [p, p+n). The caller guarantees
// n > 0; prefetch never faults, so over-reaching the last partial line
// is harmless.
TEXT ·prefetchSpan(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
prefloop:
	PREFETCHT0 (SI)
	ADDQ $64, SI
	SUBQ $64, CX
	JGT  prefloop
	RET

// func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
