// AVX2+FMA float32 kernels for the scoring hot path. Only reached when
// the runtime probe in f32_amd64.go set mat.f32SIMD; callers guarantee
// n >= 1 and non-nil pointers. All loads/stores are unaligned (VMOVUPS) —
// Go slices carry no alignment guarantee. Every exit runs VZEROUPPER so
// the surrounding SSE-encoded Go code pays no AVX transition penalty.

#include "textflag.h"

// tailMask is the lane-mask table of the kernels' n mod 8 tails: the
// eight 32-bit words starting t words before the zeros select the first
// t lanes.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func dot4F32Asm(x, r0, r1, r2, r3 *float32, n int, out *[4]float32)
//
// out[k] = Σ x[i]·rk[i] for k = 0..3: four dots sharing the operand x,
// one YMM accumulator each so the four FMA chains overlap. The n mod 8
// tail is one masked 8-lane step (masked-off lanes load as zero and
// never fault) rather than a serial scalar chain. Each dot's arithmetic
// depends only on its own operands, so a result does not depend on
// which rows share its call.
TEXT ·dot4F32Asm(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX            // byte offset into every operand
	MOVQ CX, DX
	SHRQ $3, DX            // 8-element steps
	JZ   d4tail
d4loop:
	VMOVUPS (SI)(AX*1), Y4
	VFMADD231PS (R8)(AX*1), Y4, Y0
	VFMADD231PS (R9)(AX*1), Y4, Y1
	VFMADD231PS (R10)(AX*1), Y4, Y2
	VFMADD231PS (R11)(AX*1), Y4, Y3
	ADDQ $32, AX
	DECQ DX
	JNZ  d4loop
d4tail:
	ANDQ $7, CX
	JZ   d4reduce
	LEAQ tailMask<>+32(SB), BX
	SHLQ $2, CX
	SUBQ CX, BX
	VMOVUPS (BX), Y9
	VMASKMOVPS (SI)(AX*1), Y9, Y4
	VMASKMOVPS (R8)(AX*1), Y9, Y5
	VFMADD231PS Y5, Y4, Y0
	VMASKMOVPS (R9)(AX*1), Y9, Y6
	VFMADD231PS Y6, Y4, Y1
	VMASKMOVPS (R10)(AX*1), Y9, Y7
	VFMADD231PS Y7, Y4, Y2
	VMASKMOVPS (R11)(AX*1), Y9, Y8
	VFMADD231PS Y8, Y4, Y3
d4reduce:
	VEXTRACTF128 $1, Y0, X4
	VADDPS X4, X0, X0
	VEXTRACTF128 $1, Y1, X5
	VADDPS X5, X1, X1
	VEXTRACTF128 $1, Y2, X6
	VADDPS X6, X2, X2
	VEXTRACTF128 $1, Y3, X7
	VADDPS X7, X3, X3
	VHADDPS X1, X0, X0     // (a01, a23, b01, b23)
	VHADDPS X3, X2, X2     // (c01, c23, d01, d23)
	VHADDPS X2, X0, X0     // (a, b, c, d)
	VMOVUPS X0, (DI)
	VZEROUPPER
	RET

// func axpy4F32Asm(dst, b *float32, ldb int, s *[4]float32, n int)
//
// dst[j] += s[0]·b[j] + s[1]·b[ldb+j] + s[2]·b[2ldb+j] + s[3]·b[3ldb+j]
// for j in [0, n) — four rows of the transposed-matvec accumulated into
// dst in one sweep, each scalar broadcast across a YMM lane set.
TEXT ·axpy4F32Asm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), DX
	SHLQ $2, DX            // row stride in bytes
	MOVQ s+24(FP), AX
	VBROADCASTSS 0(AX), Y1
	VBROADCASTSS 4(AX), Y2
	VBROADCASTSS 8(AX), Y3
	VBROADCASTSS 12(AX), Y4
	LEAQ (SI)(DX*1), R9    // row 1
	LEAQ (SI)(DX*2), R10   // row 2
	LEAQ (R10)(DX*1), R11  // row 3
	MOVQ n+32(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX            // 8-element blocks
	JZ   a4tail
a4loop:
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y5
	VMOVUPS (R9), Y6
	VMOVUPS (R10), Y7
	VMOVUPS (R11), Y8
	VFMADD231PS Y5, Y1, Y0
	VFMADD231PS Y6, Y2, Y0
	VFMADD231PS Y7, Y3, Y0
	VFMADD231PS Y8, Y4, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ DX
	JNZ  a4loop
a4tail:
	ANDQ $7, CX            // one masked step: same per-lane FMAs as above
	JZ   a4done
	LEAQ tailMask<>+32(SB), BX
	SHLQ $2, CX
	SUBQ CX, BX
	VMOVUPS (BX), Y9
	VMASKMOVPS (DI), Y9, Y0
	VMASKMOVPS (SI), Y9, Y5
	VMASKMOVPS (R9), Y9, Y6
	VMASKMOVPS (R10), Y9, Y7
	VMASKMOVPS (R11), Y9, Y8
	VFMADD231PS Y5, Y1, Y0
	VFMADD231PS Y6, Y2, Y0
	VFMADD231PS Y7, Y3, Y0
	VFMADD231PS Y8, Y4, Y0
	VMASKMOVPS Y0, Y9, (DI)
a4done:
	VZEROUPPER
	RET

// func axpy1F32Asm(dst, b *float32, s float32, n int)
//
// dst[j] += s·b[j] for j in [0, n) — the tail-row form of the
// transposed matvec (rows beyond the last multiple of four).
TEXT ·axpy1F32Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSS s+16(FP), Y1
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   a1tail
a1loop:
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y2
	VFMADD231PS Y2, Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ DX
	JNZ  a1loop
a1tail:
	ANDQ $7, CX            // one masked step: same per-lane FMA as above
	JZ   a1done
	LEAQ tailMask<>+32(SB), BX
	SHLQ $2, CX
	SUBQ CX, BX
	VMOVUPS (BX), Y9
	VMASKMOVPS (DI), Y9, Y0
	VMASKMOVPS (SI), Y9, Y2
	VFMADD231PS Y2, Y1, Y0
	VMASKMOVPS Y0, Y9, (DI)
a1done:
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0Asm() (eax, edx uint32)
TEXT ·xgetbv0Asm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// sigConst holds the float32 constants of sigmoidF32Asm: the clamp
// bounds keeping 2^n a normal float, log2(e), ln 2 split in two for an
// exact range reduction, and the degree-5 exp polynomial of Cephes'
// expf (accurate to about 1 ulp on |r| ≤ ln2/2).
DATA sigConst<>+0(SB)/4, $0x42b00a3d  // hi  =  88.02
DATA sigConst<>+4(SB)/4, $0xc2aea8f6  // lo  = -87.33
DATA sigConst<>+8(SB)/4, $0x3fb8aa3b  // log2(e)
DATA sigConst<>+12(SB)/4, $0x3f318000 // c1 = 0.693359375
DATA sigConst<>+16(SB)/4, $0xb95e8083 // c2 = -2.12194440e-4 (c1 + c2 = ln 2)
DATA sigConst<>+20(SB)/4, $0x39506967 // p0
DATA sigConst<>+24(SB)/4, $0x3ab743ce // p1
DATA sigConst<>+28(SB)/4, $0x3c088908 // p2
DATA sigConst<>+32(SB)/4, $0x3d2aa9c1 // p3
DATA sigConst<>+36(SB)/4, $0x3e2aaaaa // p4
DATA sigConst<>+40(SB)/4, $0x3f000000 // p5
DATA sigConst<>+44(SB)/4, $0x3f800000 // 1.0
GLOBL sigConst<>(SB), RODATA|NOPTR, $48

// SIGMOID maps Y0 = z to Y2 = 1/(1+exp(−z)) lane-wise, with Y1 and Y3 as
// scratch and the constants in Y4..Y15 (see sigmoidF32Asm). exp(x) is
// 2^n·p(r) with n = round(x·log2 e) and r = x − n·ln 2; the clamp keeps
// 2^n normal, and NaN passes through both clamps (the second operand of
// VMINPS/VMAXPS is returned when either is NaN).
#define SIGMOID \
	VXORPS Y3, Y3, Y3; \
	VSUBPS Y0, Y3, Y0; \
	VMINPS Y0, Y15, Y0; \
	VMAXPS Y0, Y14, Y0; \
	VMULPS Y13, Y0, Y1; \
	VROUNDPS $0, Y1, Y1; \
	VFNMADD231PS Y12, Y1, Y0; \
	VFNMADD231PS Y11, Y1, Y0; \
	VMOVAPS Y9, Y2; \
	VFMADD213PS Y8, Y0, Y2; \
	VFMADD213PS Y7, Y0, Y2; \
	VFMADD213PS Y6, Y0, Y2; \
	VFMADD213PS Y5, Y0, Y2; \
	VFMADD213PS Y4, Y0, Y2; \
	VMULPS Y0, Y0, Y3; \
	VFMADD213PS Y0, Y3, Y2; \
	VADDPS Y10, Y2, Y2; \
	VCVTPS2DQ Y1, Y3; \
	VPSLLD $23, Y3, Y3; \
	VPADDD Y10, Y3, Y3; \
	VMULPS Y3, Y2, Y2; \
	VADDPS Y10, Y2, Y2; \
	VDIVPS Y2, Y10, Y2

// func sigmoidF32Asm(dst, bias *float32, n int)
//
// dst[i] = 1/(1+exp(−(dst[i]+bias[i]))) for i in [0, n): the OS-ELM
// hidden activation, eight lanes per step and the n mod 8 tail as one
// masked step running the same per-lane arithmetic.
TEXT ·sigmoidF32Asm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS sigConst<>+0(SB), Y15
	VBROADCASTSS sigConst<>+4(SB), Y14
	VBROADCASTSS sigConst<>+8(SB), Y13
	VBROADCASTSS sigConst<>+12(SB), Y12
	VBROADCASTSS sigConst<>+16(SB), Y11
	VBROADCASTSS sigConst<>+44(SB), Y10
	VBROADCASTSS sigConst<>+20(SB), Y9
	VBROADCASTSS sigConst<>+24(SB), Y8
	VBROADCASTSS sigConst<>+28(SB), Y7
	VBROADCASTSS sigConst<>+32(SB), Y6
	VBROADCASTSS sigConst<>+36(SB), Y5
	VBROADCASTSS sigConst<>+40(SB), Y4
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   sigtail
sigloop:
	VMOVUPS (DI), Y0
	VADDPS (SI), Y0, Y0
	SIGMOID
	VMOVUPS Y2, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ DX
	JNZ  sigloop
sigtail:
	ANDQ $7, CX
	JZ   sigdone
	LEAQ tailMask<>+32(SB), BX
	SHLQ $2, CX
	SUBQ CX, BX
	VMOVUPS (BX), Y1
	VMASKMOVPS (DI), Y1, Y0
	VMASKMOVPS (SI), Y1, Y2
	VADDPS Y2, Y0, Y0
	SIGMOID
	VMOVUPS (BX), Y1
	VMASKMOVPS Y2, Y1, (DI)
sigdone:
	VZEROUPPER
	RET
