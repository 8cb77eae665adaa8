// AVX2 float64 kernels for the OS-ELM hot path. Only reached when the
// runtime probe in f32_amd64.go set mat.f64SIMD; callers guarantee
// n >= 1 and non-nil pointers. All loads/stores are unaligned (VMOVUPD)
// — Go slices carry no alignment guarantee. Every exit runs VZEROUPPER
// so the surrounding SSE-encoded Go code pays no AVX transition penalty.
//
// Unlike the float32 kernels these are bit-exact against the generic
// scalar loops they replace: multiplies and adds are separate VMULPD /
// VADDPD (never FMA), each YMM lane is exactly one of the scalar code's
// accumulators, and every sum is associated in the scalar code's order.

#include "textflag.h"

// func dot4F64Asm(x, r0, r1, r2, r3 *float64, n int, out *[4]float64)
//
// out[k] = Σ x[i]·rk[i] for k = 0..3 — four dotKernel calls sharing the
// operand x. Each dot keeps one YMM accumulator whose lanes are
// dotKernel's stride-4 accumulators s0..s3; the n mod 4 tail folds into
// lane 0 (s0) and the reduction is (s0+s1)+(s2+s3), as in dotKernel.
TEXT ·dot4F64Asm(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX            // byte offset into every operand
	MOVQ CX, DX
	SHRQ $2, DX            // 4-element steps
	JZ   d4split
d4loop:
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  (R8)(AX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R9)(AX*1), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R10)(AX*1), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R11)(AX*1), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ $32, AX
	DECQ DX
	JNZ  d4loop
d4split:
	// Park each accumulator's (s2, s3) half before the scalar tail: a
	// VEX.128 write zeroes the upper half of its YMM register.
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	ANDQ $3, CX
	JZ   d4reduce
d4tail:
	VMOVSD (SI)(AX*1), X8
	VMULSD (R8)(AX*1), X8, X9
	VADDSD X9, X0, X0
	VMULSD (R9)(AX*1), X8, X9
	VADDSD X9, X1, X1
	VMULSD (R10)(AX*1), X8, X9
	VADDSD X9, X2, X2
	VMULSD (R11)(AX*1), X8, X9
	VADDSD X9, X3, X3
	ADDQ $8, AX
	DECQ CX
	JNZ  d4tail
d4reduce:
	VHADDPD X4, X0, X0     // (s0+s1, s2+s3) of dot 0
	VHADDPD X5, X1, X1
	VHADDPD X6, X2, X2
	VHADDPD X7, X3, X3
	VHADDPD X1, X0, X0     // ((s0+s1)+(s2+s3)) of dots 0 and 1
	VHADDPD X3, X2, X2     // ... and of dots 2 and 3
	VMOVUPD X0, (DI)
	VMOVUPD X2, 16(DI)
	VZEROUPPER
	RET

// func axpy4F64Asm(dst, b *float64, ldb int, s *[4]float64, n int)
//
// dst[j] += ((s[0]·b[j] + s[1]·b[ldb+j]) + s[2]·b[2ldb+j]) + s[3]·b[3ldb+j]
// for j in [0, n) — the generic kernels' four-row statement
// `dst[j] += x0*r0[j] + x1*r1[j] + x2*r2[j] + x3*r3[j]`, one lane per j.
// Lanes are independent, so the loop takes two vectors per iteration.
TEXT ·axpy4F64Asm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), DX
	SHLQ $3, DX            // row stride in bytes
	MOVQ s+24(FP), AX
	VBROADCASTSD 0(AX), Y1
	VBROADCASTSD 8(AX), Y2
	VBROADCASTSD 16(AX), Y3
	VBROADCASTSD 24(AX), Y4
	LEAQ (SI)(DX*1), R9    // row 1
	LEAQ (SI)(DX*2), R10   // row 2
	LEAQ (R10)(DX*1), R11  // row 3
	MOVQ n+32(FP), CX
	XORQ AX, AX            // byte offset into every operand
	MOVQ CX, DX
	SHRQ $3, DX            // 8-element iterations
	JZ   a4step
a4loop:
	VMULPD (SI)(AX*1), Y1, Y5
	VMULPD 32(SI)(AX*1), Y1, Y6
	VMULPD (R9)(AX*1), Y2, Y7
	VMULPD 32(R9)(AX*1), Y2, Y8
	VADDPD Y7, Y5, Y5
	VADDPD Y8, Y6, Y6
	VMULPD (R10)(AX*1), Y3, Y7
	VMULPD 32(R10)(AX*1), Y3, Y8
	VADDPD Y7, Y5, Y5
	VADDPD Y8, Y6, Y6
	VMULPD (R11)(AX*1), Y4, Y7
	VMULPD 32(R11)(AX*1), Y4, Y8
	VADDPD Y7, Y5, Y5
	VADDPD Y8, Y6, Y6
	VMOVUPD (DI)(AX*1), Y7
	VMOVUPD 32(DI)(AX*1), Y8
	VADDPD Y5, Y7, Y7
	VADDPD Y6, Y8, Y8
	VMOVUPD Y7, (DI)(AX*1)
	VMOVUPD Y8, 32(DI)(AX*1)
	ADDQ $64, AX
	DECQ DX
	JNZ  a4loop
a4step:
	TESTQ $4, CX           // one more 4-element step
	JZ   a4tail
	VMULPD (SI)(AX*1), Y1, Y5
	VMULPD (R9)(AX*1), Y2, Y6
	VADDPD Y6, Y5, Y5
	VMULPD (R10)(AX*1), Y3, Y6
	VADDPD Y6, Y5, Y5
	VMULPD (R11)(AX*1), Y4, Y6
	VADDPD Y6, Y5, Y5
	VMOVUPD (DI)(AX*1), Y0
	VADDPD Y5, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
a4tail:
	ANDQ $3, CX
	JZ   a4done
a4tailloop:
	VMULSD (SI)(AX*1), X1, X5
	VMULSD (R9)(AX*1), X2, X6
	VADDSD X6, X5, X5
	VMULSD (R10)(AX*1), X3, X6
	VADDSD X6, X5, X5
	VMULSD (R11)(AX*1), X4, X6
	VADDSD X6, X5, X5
	VMOVSD (DI)(AX*1), X0
	VADDSD X5, X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JNZ  a4tailloop
a4done:
	VZEROUPPER
	RET

// func axpy4x2F64Asm(d0, d1, b *float64, ldb int, s *[8]float64, n int)
//
// axpy4F64Asm for two destinations sharing the four rows of b: d0 takes
// the coefficients s[0..3] and d1 takes s[4..7], each with exactly the
// arithmetic of its own axpy4F64Asm call. Sharing the row loads is what
// pays: at the paper's D=511 most rows start off a 32-byte boundary, so
// every other row load splits a cache line.
TEXT ·axpy4x2F64Asm(SB), NOSPLIT, $0-48
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), DX
	SHLQ $3, DX            // row stride in bytes
	MOVQ s+32(FP), AX
	VBROADCASTSD 0(AX), Y1
	VBROADCASTSD 8(AX), Y2
	VBROADCASTSD 16(AX), Y3
	VBROADCASTSD 24(AX), Y4
	VBROADCASTSD 32(AX), Y5
	VBROADCASTSD 40(AX), Y6
	VBROADCASTSD 48(AX), Y7
	VBROADCASTSD 56(AX), Y8
	LEAQ (SI)(DX*1), R9    // row 1
	LEAQ (SI)(DX*2), R10   // row 2
	LEAQ (R10)(DX*1), R11  // row 3
	MOVQ n+40(FP), CX
	XORQ AX, AX            // byte offset into every operand
	MOVQ CX, DX
	SHRQ $2, DX            // 4-element steps
	JZ   a42tail
a42loop:
	VMOVUPD (SI)(AX*1), Y9
	VMULPD  Y9, Y1, Y10
	VMULPD  Y9, Y5, Y11
	VMOVUPD (R9)(AX*1), Y9
	VMULPD  Y9, Y2, Y12
	VADDPD  Y12, Y10, Y10
	VMULPD  Y9, Y6, Y12
	VADDPD  Y12, Y11, Y11
	VMOVUPD (R10)(AX*1), Y9
	VMULPD  Y9, Y3, Y12
	VADDPD  Y12, Y10, Y10
	VMULPD  Y9, Y7, Y12
	VADDPD  Y12, Y11, Y11
	VMOVUPD (R11)(AX*1), Y9
	VMULPD  Y9, Y4, Y12
	VADDPD  Y12, Y10, Y10
	VMULPD  Y9, Y8, Y12
	VADDPD  Y12, Y11, Y11
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y10, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD (BX)(AX*1), Y0
	VADDPD  Y11, Y0, Y0
	VMOVUPD Y0, (BX)(AX*1)
	ADDQ $32, AX
	DECQ DX
	JNZ  a42loop
a42tail:
	ANDQ $3, CX
	JZ   a42done
a42tailloop:
	VMOVSD (SI)(AX*1), X9
	VMULSD X9, X1, X10
	VMULSD X9, X5, X11
	VMOVSD (R9)(AX*1), X9
	VMULSD X9, X2, X12
	VADDSD X12, X10, X10
	VMULSD X9, X6, X12
	VADDSD X12, X11, X11
	VMOVSD (R10)(AX*1), X9
	VMULSD X9, X3, X12
	VADDSD X12, X10, X10
	VMULSD X9, X7, X12
	VADDSD X12, X11, X11
	VMOVSD (R11)(AX*1), X9
	VMULSD X9, X4, X12
	VADDSD X12, X10, X10
	VMULSD X9, X8, X12
	VADDSD X12, X11, X11
	VMOVSD (DI)(AX*1), X0
	VADDSD X10, X0, X0
	VMOVSD X0, (DI)(AX*1)
	VMOVSD (BX)(AX*1), X0
	VADDSD X11, X0, X0
	VMOVSD X0, (BX)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JNZ  a42tailloop
a42done:
	VZEROUPPER
	RET

// func axpy1F64Asm(dst, b *float64, s float64, n int)
//
// dst[j] += s·b[j] for j in [0, n) — tail rows of the four-row kernels
// and each row of a rank-1 update.
TEXT ·axpy1F64Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSD s+16(FP), Y1
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   a1tail
a1loop:
	VMULPD (SI), Y1, Y2
	VMOVUPD (DI), Y0
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ DX
	JNZ  a1loop
a1tail:
	ANDQ $3, CX
	JZ   a1done
a1tailloop:
	VMULSD (SI), X1, X2
	VMOVSD (DI), X0
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ CX
	JNZ  a1tailloop
a1done:
	VZEROUPPER
	RET
