package mat

import "math"

// Float32 fast-path kernels. The generic kernel layer compiles to clean
// scalar loops — gc does not auto-vectorize — so these concrete float32
// entry points dispatch to hand-written AVX2+FMA kernels (f32_amd64.s)
// when the running CPU has them and fall back to the shared generic
// kernels everywhere else (including the GOARCH=arm cross-build and
// pre-AVX2 amd64). float64 has SIMD kernels too, but reached from inside
// the generic kernels and bit-exact against them (see f64.go); float32
// gets its own entry points because its kernels are free to round
// differently.
//
// Numerically the SIMD kernels fuse multiply-adds, use wider
// accumulator trees than the scalar reference and (SigmoidF32) evaluate
// exp at float32, so float32 results are CPU-feature-dependent within
// the usual accumulation-error envelope (the f32 backend's tests are
// tolerance-based for exactly this reason). What is guaranteed — and
// what the batch path relies on — is self-consistency: the per-sample
// and batched entry points below share one kernel per operation, so
// batched f32 scores are bit-identical to per-sample f32 scores on any
// given machine.

// f32SIMD reports whether the AVX2+FMA kernels are usable on this CPU.
// Set once at init by the amd64 feature probe; never true elsewhere.
var f32SIMD bool

// F32SIMD reports whether the float32 kernels are running the
// hand-written SIMD path on this machine (AVX2+FMA, amd64 only). The
// benchmarks record it so throughput numbers are attributable.
func F32SIMD() bool { return f32SIMD }

// f32SIMDMinLen is the vector length below which the scalar kernel wins:
// under one 8-lane step the asm call is all prologue and tail.
const f32SIMDMinLen = 8

// DotF32 returns the inner product of a and b (equal lengths).
func DotF32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	if f32SIMD && len(a) >= f32SIMDMinLen {
		// One dot through the four-dot kernel, the other three lanes
		// repeating it: the same arithmetic MulVecF32 gives each row.
		var out [4]float32
		dot4F32Asm(&b[0], &a[0], &a[0], &a[0], &a[0], len(a), &out)
		return out[0]
	}
	return dotKernel(a, b)
}

// MulVecF32 computes dst = m·x — the float32 MulVec, x dotted against
// four rows of m per SIMD call.
func MulVecF32(dst []float32, m *MatrixOf[float32], x []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(ErrShape)
	}
	cols := m.Cols
	if f32SIMD && cols >= f32SIMDMinLen {
		if len(m.Data) < m.Rows*cols {
			panic(ErrShape)
		}
		var out [4]float32
		last := len(dst) - 1
		for i := 0; i <= last; i += 4 {
			r0, r1, r2, r3 := rowPtrs(m.Data, i, last, cols)
			dot4F32Asm(&x[0], r0, r1, r2, r3, cols, &out)
			copy(dst[i:], out[:])
		}
		return
	}
	for i := range dst {
		dst[i] = dotKernel(m.Data[i*cols:i*cols+cols], x)
	}
}

// MulVecTransF32 computes dst = mᵀ·x — the float32 MulVecTrans, folding
// four matrix rows into dst per SIMD sweep and remaining rows one at a
// time (the zero-skip on tail rows mirrors the generic kernel).
func MulVecTransF32(dst []float32, m *MatrixOf[float32], x []float32) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(ErrShape)
	}
	if !f32SIMD || m.Cols < f32SIMDMinLen {
		MulVecTrans(dst, m, x)
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	cols := m.Cols
	n := m.Rows
	n4 := n &^ 3
	var s [4]float32
	var i int
	for ; i < n4; i += 4 {
		s[0], s[1], s[2], s[3] = x[i], x[i+1], x[i+2], x[i+3]
		axpy4F32Asm(&dst[0], &m.Data[i*cols], cols, &s, cols)
	}
	for ; i < n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		axpy1F32Asm(&dst[0], &m.Data[i*cols], xi, cols)
	}
}

// MulBatchF32 is the float32 MulBatch: dst = a·bᵀ, each element the same
// four-dot kernel MulVecF32 runs, blocked so a block of four of a's rows
// is L1-resident while each b row streams once per block (and is dotted
// against the whole block in one SIMD call).
func MulBatchF32(dst, a, b *MatrixOf[float32]) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(ErrShape)
	}
	dc := dst.Cols
	cols := a.Cols
	if !f32SIMD || cols < f32SIMDMinLen {
		MulBatch(dst, a, b)
		return
	}
	if len(a.Data) < a.Rows*cols || len(b.Data) < b.Rows*cols {
		panic(ErrShape)
	}
	var out [4]float32
	last := a.Rows - 1
	for i0 := 0; i0 <= last; i0 += batchRowBlock {
		s0, s1, s2, s3 := rowPtrs(a.Data, i0, last, cols)
		n := min(batchRowBlock, a.Rows-i0)
		for j := 0; j < b.Rows; j++ {
			dot4F32Asm(&b.Data[j*cols], s0, s1, s2, s3, cols, &out)
			for k := 0; k < n; k++ {
				dst.Data[(i0+k)*dc+j] = out[k]
			}
		}
	}
}

// MulBatchTransF32 computes dst's row i = mᵀ·(a's row i) for every row
// of a — the batched output-layer pass (O = H·β for row-major per-sample
// activations). It is exactly MulVecTransF32 per row, so batched outputs
// are bit-identical to per-sample ones; the batch win for this pass is
// β staying cache-hot across the rows of one block.
func MulBatchTransF32(dst, a *MatrixOf[float32], m *MatrixOf[float32]) {
	if dst.Rows != a.Rows || a.Cols != m.Rows || dst.Cols != m.Cols {
		panic(ErrShape)
	}
	for i := 0; i < a.Rows; i++ {
		MulVecTransF32(dst.Row(i), m, a.Row(i))
	}
}

// SigmoidF32 computes dst[i] = 1/(1+exp(−(dst[i]+bias[i]))) — the
// OS-ELM sigmoid hidden activation at float32. The SIMD path evaluates
// exp at float32 (a Cephes-style polynomial, about 1 ulp) eight lanes at
// a time; the fallback evaluates it at float64 and narrows. Either way
// the result depends only on the element's own inputs, so batched and
// per-sample activations are bit-identical on a given machine.
func SigmoidF32(dst, bias []float32) {
	if len(bias) < len(dst) {
		panic(ErrShape)
	}
	if f32SIMD && len(dst) > 0 {
		sigmoidF32Asm(&dst[0], &bias[0], len(dst))
		return
	}
	for i := range dst {
		z := dst[i] + bias[i]
		dst[i] = float32(1 / (1 + math.Exp(float64(-z))))
	}
}
