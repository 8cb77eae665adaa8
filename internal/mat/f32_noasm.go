//go:build !amd64

package mat

// Stubs for the amd64-only SIMD kernels. f32SIMD is never set on other
// architectures, so these are unreachable; they exist only to keep the
// dispatchers in f32.go compiling on every GOARCH (the ROADMAP's ARM
// cross-build included).

func dot4F32Asm(x, r0, r1, r2, r3 *float32, n int, out *[4]float32) {
	panic("mat: dot4F32Asm called without SIMD support")
}

func axpy4F32Asm(dst, b *float32, ldb int, s *[4]float32, n int) {
	panic("mat: axpy4F32Asm called without SIMD support")
}

func axpy1F32Asm(dst, b *float32, s float32, n int) {
	panic("mat: axpy1F32Asm called without SIMD support")
}

func sigmoidF32Asm(dst, bias *float32, n int) {
	panic("mat: sigmoidF32Asm called without SIMD support")
}
