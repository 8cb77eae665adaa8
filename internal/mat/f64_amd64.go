//go:build amd64

package mat

//go:noescape
func dot4F64Asm(x, r0, r1, r2, r3 *float64, n int, out *[4]float64)

//go:noescape
func axpy4F64Asm(dst, b *float64, ldb int, s *[4]float64, n int)

//go:noescape
func axpy4x2F64Asm(d0, d1, b *float64, ldb int, s *[8]float64, n int)

//go:noescape
func axpy1F64Asm(dst, b *float64, s float64, n int)
