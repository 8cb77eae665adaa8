//go:build amd64

package mat

// AVX2 feature probe, shared by the float32 and float64 kernels. Both
// need AVX2 and — critically — OS support for saving the YMM state
// (OSXSAVE set and XCR0[2:1] == 11b), without which executing a VEX.256
// instruction faults even on capable hardware. The float32 kernels also
// need FMA3; the float64 kernels never fuse (they are bit-exact against
// the scalar loops), so they run on AVX2 parts without FMA too.

//go:noescape
func dot4F32Asm(x, r0, r1, r2, r3 *float32, n int, out *[4]float32)

//go:noescape
func axpy4F32Asm(dst, b *float32, ldb int, s *[4]float32, n int)

//go:noescape
func axpy1F32Asm(dst, b *float32, s float32, n int)

//go:noescape
func sigmoidF32Asm(dst, bias *float32, n int)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0Asm() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, c, _ := cpuidAsm(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c&osxsaveBit == 0 || c&avxBit == 0 {
		return
	}
	xcr0, _ := xgetbv0Asm()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return
	}
	_, b, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	if b&avx2Bit == 0 {
		return
	}
	f64SIMDCPU = true
	f64SIMD = true
	f32SIMD = c&fmaBit != 0
}
