//go:build !amd64

package mat

// Stubs for the amd64-only float64 SIMD kernels. f64SIMD is never set
// on other architectures, so these are unreachable; they exist only to
// keep the dispatchers in f64.go compiling on every GOARCH.

func dot4F64Asm(x, r0, r1, r2, r3 *float64, n int, out *[4]float64) {
	panic("mat: dot4F64Asm called without SIMD support")
}

func axpy4F64Asm(dst, b *float64, ldb int, s *[4]float64, n int) {
	panic("mat: axpy4F64Asm called without SIMD support")
}

func axpy4x2F64Asm(d0, d1, b *float64, ldb int, s *[8]float64, n int) {
	panic("mat: axpy4x2F64Asm called without SIMD support")
}

func axpy1F64Asm(dst, b *float64, s float64, n int) {
	panic("mat: axpy1F64Asm called without SIMD support")
}
