package mat

import "unsafe"

// Float64 SIMD dispatch. The float64 instantiations of the generic
// kernels (MulVec, MulVecTrans, MulBatch, MulBatchRows, MulBatchTrans,
// Mul, MulTransA, AddScaledOuter) hand their inner loops to the AVX2
// kernels in f64_amd64.s when the running CPU has them, so every float64
// caller — batched scoring, per-sample Predict, RLS Train, template
// fitting — takes the fast path with no API of its own.
//
// The contract is bit-exactness: the kernels use separate multiplies and
// adds (no FMA), each vector lane is exactly one accumulator of the
// scalar loop, and every sum keeps the scalar association, so results
// are bit-identical to the generic Go code with SIMD on or off (NaN
// payloads aside; NaN-ness is preserved). That is what keeps the golden
// fingerprints and paper tables pinned across CPUs.
//
// Dispatch tests the element width with unsafe.Sizeof, which is fixed
// per instantiation, and reinterprets the slices in place: no interface
// boxing, so the zero-allocation contract of the hot path holds. The
// only 8-byte Element is float64 (or a type defined on it).

// f64SIMD reports whether the float64 kernels take the AVX2 path;
// f64SIMDCPU whether the CPU allows it. Both are set once at init by the
// amd64 feature probe and never true elsewhere.
var f64SIMD, f64SIMDCPU bool

// f64SIMDMinLen is one 4-lane step: shorter vectors stay scalar.
const f64SIMDMinLen = 4

// F64SIMD reports whether the float64 kernels are running the AVX2 path
// on this machine.
func F64SIMD() bool { return f64SIMD }

// SetF64SIMD turns the float64 AVX2 path on or off and returns the
// previous setting; on is ignored where the CPU lacks AVX2. It exists so
// tests and benchmarks can compare the two paths. It must not race with
// running kernels.
func SetF64SIMD(on bool) (prev bool) {
	prev = f64SIMD
	f64SIMD = on && f64SIMDCPU
	return prev
}

// simdF64 reports whether a kernel instantiated at E takes the float64
// SIMD path for vectors of length n.
func simdF64[E Element](n int) bool {
	var z E
	return f64SIMD && unsafe.Sizeof(z) == 8 && n >= f64SIMDMinLen
}

// asF64 reinterprets s as []float64. Only valid when E is 8 bytes wide.
func asF64[E Element](s []E) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// rowPtrs returns pointers to rows i..i+3 of the row-major m (stride
// cols), repeating row last for rows past it: a short block runs through
// the same four-dot kernel and its extra results are discarded.
func rowPtrs[E Element](m []E, i, last, cols int) (r0, r1, r2, r3 *E) {
	return &m[i*cols], &m[min(i+1, last)*cols], &m[min(i+2, last)*cols], &m[min(i+3, last)*cols]
}

// mulVecF64 is MulVec's SIMD path: x against four rows of m per call.
func mulVecF64(dst, m []float64, x []float64) {
	cols := len(x)
	if len(m) < len(dst)*cols {
		panic(ErrShape)
	}
	var out [4]float64
	last := len(dst) - 1
	for i := 0; i <= last; i += 4 {
		r0, r1, r2, r3 := rowPtrs(m, i, last, cols)
		dot4F64Asm(&x[0], r0, r1, r2, r3, cols, &out)
		copy(dst[i:], out[:])
	}
}

// mulBatchBlockF64 is the SIMD path of MulBatch/MulBatchRows for one
// block of n (at most four) samples s0..s3 starting at row i0: each of
// the dc weight rows of w is dotted against the whole block in one call.
func mulBatchBlockF64(dst []float64, dc, i0, n int, w []float64, cols int, s0, s1, s2, s3 *float64) {
	if len(w) < dc*cols {
		panic(ErrShape)
	}
	var out [4]float64
	for j := 0; j < dc; j++ {
		dot4F64Asm(&w[j*cols], s0, s1, s2, s3, cols, &out)
		for k := 0; k < n; k++ {
			dst[(i0+k)*dc+j] = out[k]
		}
	}
}

// axpyRowsF64 adds c[k·cs]·(row k of b) to dst for k in [0, n), where
// row k is b[k·ldb : k·ldb+len(dst)]: four rows per axpy4 call, then the
// remaining rows one at a time with zero coefficients skipped — the
// update order, association and zero-skip of the generic four-row loops
// of MulVecTrans, Mul and MulTransA.
func axpyRowsF64(dst, c []float64, cs int, b []float64, ldb, n int) {
	if n > 0 && len(b) < (n-1)*ldb+len(dst) {
		panic(ErrShape)
	}
	var s [4]float64
	k := 0
	for ; k+4 <= n; k += 4 {
		s = [4]float64{c[k*cs], c[(k+1)*cs], c[(k+2)*cs], c[(k+3)*cs]}
		axpy4F64Asm(&dst[0], &b[k*ldb], ldb, &s, len(dst))
	}
	for ; k < n; k++ {
		if v := c[k*cs]; v != 0 {
			axpy1F64Asm(&dst[0], &b[k*ldb], v, len(dst))
		}
	}
}

// mulBatchTransF64 is MulBatchTrans's SIMD path for the n×h activations
// a against the h×cols matrix m: samples in pairs share each four-row
// sweep of m (axpy4x2), and every output row gets exactly the updates,
// in the order, that MulVecTrans would give it — so results are
// bit-identical to the per-sample path.
func mulBatchTransF64(dst, a, m []float64, n, h, cols int) {
	if len(dst) < n*cols || len(a) < n*h || len(m) < h*cols {
		panic(ErrShape)
	}
	h4 := h &^ 3
	var s [8]float64
	i := 0
	for ; i+2 <= n; i += 2 {
		d0, d1 := dst[i*cols:(i+1)*cols], dst[(i+1)*cols:(i+2)*cols]
		x0, x1 := a[i*h:(i+1)*h], a[(i+1)*h:(i+2)*h]
		clear(d0)
		clear(d1)
		for k := 0; k < h4; k += 4 {
			s = [8]float64{x0[k], x0[k+1], x0[k+2], x0[k+3], x1[k], x1[k+1], x1[k+2], x1[k+3]}
			axpy4x2F64Asm(&d0[0], &d1[0], &m[k*cols], cols, &s, cols)
		}
		for k := h4; k < h; k++ {
			if v := x0[k]; v != 0 {
				axpy1F64Asm(&d0[0], &m[k*cols], v, cols)
			}
			if v := x1[k]; v != 0 {
				axpy1F64Asm(&d1[0], &m[k*cols], v, cols)
			}
		}
	}
	if i < n {
		d := dst[i*cols : (i+1)*cols]
		clear(d)
		axpyRowsF64(d, a[i*h:(i+1)*h], 1, m, cols, h)
	}
}

// addScaledOuterF64 is AddScaledOuter's SIMD path: each row of m gets
// its own axpy1 pass over v. Row scales are taken per four-row block
// before the block is updated and only tail rows skip a zero scale,
// exactly as in the generic kernel. v must not overlap m.
func addScaledOuterF64(m []float64, s float64, u, v []float64) {
	cols := len(v)
	n := len(u)
	if len(m) < n*cols {
		panic(ErrShape)
	}
	n4 := n &^ 3
	var i int
	for ; i < n4; i += 4 {
		s0, s1, s2, s3 := s*u[i], s*u[i+1], s*u[i+2], s*u[i+3]
		axpy1F64Asm(&m[i*cols], &v[0], s0, cols)
		axpy1F64Asm(&m[(i+1)*cols], &v[0], s1, cols)
		axpy1F64Asm(&m[(i+2)*cols], &v[0], s2, cols)
		axpy1F64Asm(&m[(i+3)*cols], &v[0], s3, cols)
	}
	for ; i < n; i++ {
		if su := s * u[i]; su != 0 {
			axpy1F64Asm(&m[i*cols], &v[0], su, cols)
		}
	}
}

// overlaps reports whether a and b share any element.
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b))*8 && pb < pa+uintptr(len(a))*8
}
