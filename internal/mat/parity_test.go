package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Parity tests for the cache-blocked and batched kernels against the
// reference implementations in ref.go, and for the SIMD float32 kernels
// against the generic scalar path.
//
// Exactness tiers:
//   - Blocked Mul/MulTransA vs refMul/refMulTransA: bit-identical at
//     float64 AND float32 — the 8-wide pass is written as two 4-term
//     statements, preserving the reference association exactly.
//   - MulBatch/MulBatchRows vs refMulBatch: bit-identical at both float
//     types — every element is the same dotKernel call.
//   - MulVecBatchQ16 vs MulVecQ16: bit-identical — DotQ16 accumulates in
//     int64 and saturates once, so per-element order never changes.
//   - SIMD f32 kernels vs generic scalar: tolerance-based — FMA and wide
//     accumulator trees legitimately round differently. The tolerance is
//     scaled to float32 accumulation error over the vector length.
//   - SIMD batch vs SIMD per-sample: bit-identical — both entry points
//     run the same asm kernel per element.

// parityShapes covers the awkward cases: single-element dims, exact
// multiples of the 4- and 8-wide blocking, one-off-a-multiple (ragged
// tails), and the paper's real shapes (D=511, H=22).
var parityShapes = []struct{ n, d, h int }{
	{1, 1, 1},
	{1, 511, 22},
	{3, 5, 2},
	{4, 8, 8},
	{5, 9, 7},
	{7, 12, 4},
	{8, 16, 3},
	{9, 17, 9},
	{16, 32, 22},
	{17, 33, 23},
	{64, 511, 22},
	{65, 63, 129},
}

func fillRand[E Element](rng *rand.Rand, data []E) {
	for i := range data {
		// Sprinkle exact zeros so the zero-skip scalar tails are hit.
		if rng.Intn(8) == 0 {
			data[i] = 0
			continue
		}
		data[i] = E(rng.NormFloat64())
	}
}

func randomOf[E Element](rng *rand.Rand, r, c int) *MatrixOf[E] {
	m := NewOf[E](r, c)
	fillRand(rng, m.Data)
	return m
}

func requireBitEqual[E Element](t *testing.T, got, want []E, what string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] || (got[i] == 0 && math.Signbit(float64(got[i])) != math.Signbit(float64(want[i]))) {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", what, i, got[i], want[i])
		}
	}
}

func testMulParity[E Element](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range parityShapes {
		a := randomOf[E](rng, s.n, s.d)
		b := randomOf[E](rng, s.d, s.h)
		got := NewOf[E](s.n, s.h)
		want := NewOf[E](s.n, s.h)
		Mul(got, a, b)
		refMul(want, a, b)
		requireBitEqual(t, got.Data, want.Data, "Mul")

		at := randomOf[E](rng, s.d, s.n)
		gotT := NewOf[E](s.n, s.h)
		wantT := NewOf[E](s.n, s.h)
		MulTransA(gotT, at, b)
		refMulTransA(wantT, at, b)
		requireBitEqual(t, gotT.Data, wantT.Data, "MulTransA")
	}
}

func TestMulBlockedMatchesReferenceF64(t *testing.T) { testMulParity[float64](t, 1) }
func TestMulBlockedMatchesReferenceF32(t *testing.T) { testMulParity[float32](t, 2) }

func testMulBatchParity[E Element](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range parityShapes {
		a := randomOf[E](rng, s.n, s.d)
		w := randomOf[E](rng, s.h, s.d)
		got := NewOf[E](s.n, s.h)
		want := NewOf[E](s.n, s.h)
		MulBatch(got, a, w)
		refMulBatch(want, a, w)
		requireBitEqual(t, got.Data, want.Data, "MulBatch")

		// Rows form, and per-sample MulVec equivalence.
		xs := make([][]E, s.n)
		for i := range xs {
			xs[i] = a.Row(i)
		}
		gotRows := NewOf[E](s.n, s.h)
		MulBatchRows(gotRows, xs, w)
		requireBitEqual(t, gotRows.Data, want.Data, "MulBatchRows")

		per := make([]E, s.h)
		for i := range xs {
			MulVec(per, w, xs[i])
			requireBitEqual(t, gotRows.Row(i), per, "MulBatchRows vs MulVec")
		}
	}
}

func TestMulBatchMatchesReferenceF64(t *testing.T) { testMulBatchParity[float64](t, 3) }
func TestMulBatchMatchesReferenceF32(t *testing.T) { testMulBatchParity[float32](t, 4) }

// TestMulBlockedPropertyRandomShapes is the property-style sweep: many
// random shapes beyond the curated list, still demanding bit-equality.
func TestMulBlockedPropertyRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		d := 1 + rng.Intn(70)
		h := 1 + rng.Intn(24)
		a := randomOf[float64](rng, n, d)
		b := randomOf[float64](rng, d, h)
		got := New(n, h)
		want := New(n, h)
		Mul(got, a, b)
		refMul(want, a, b)
		requireBitEqual(t, got.Data, want.Data, "Mul(property)")

		at := randomOf[float64](rng, d, n)
		MulTransA(got, at, b)
		refMulTransA(want, at, b)
		requireBitEqual(t, got.Data, want.Data, "MulTransA(property)")

		w := randomOf[float64](rng, h, d)
		MulBatch(got, a, w)
		refMulBatch(want, a, w)
		requireBitEqual(t, got.Data, want.Data, "MulBatch(property)")
	}
}

// f32Tol returns the comparison tolerance for SIMD-vs-scalar float32
// sums of n products: accumulation error grows like sqrt(n) in the
// random case but we budget linearly to keep the test deterministic.
func f32Tol(n int, scale float64) float64 {
	return float64(n)*1e-6*scale + 1e-6
}

func maxAbs32(v []float32) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(float64(x)); a > m {
			m = a
		}
	}
	return m
}

func TestF32SIMDKernelsMatchScalar(t *testing.T) {
	if !f32SIMD {
		t.Skip("SIMD kernels not available on this CPU")
	}
	defer func() { f32SIMD = true }()
	rng := rand.New(rand.NewSource(6))
	for _, s := range parityShapes {
		w := randomOf[float32](rng, s.h, s.d)
		x := make([]float32, s.d)
		fillRand(rng, x)

		f32SIMD = true
		gotDot := DotF32(w.Row(0), x)
		gotMV := make([]float32, s.h)
		MulVecF32(gotMV, w, x)
		xh := make([]float32, s.h)
		fillRand(rng, xh)
		gotMVT := make([]float32, s.d)
		MulVecTransF32(gotMVT, w, xh)

		f32SIMD = false
		wantDot := DotF32(w.Row(0), x)
		wantMV := make([]float32, s.h)
		MulVecF32(wantMV, w, x)
		wantMVT := make([]float32, s.d)
		MulVecTransF32(wantMVT, w, xh)
		f32SIMD = true

		tol := f32Tol(s.d, maxAbs32(w.Row(0))*maxAbs32(x))
		if math.Abs(float64(gotDot)-float64(wantDot)) > tol {
			t.Fatalf("DotF32 d=%d: simd %v scalar %v (tol %v)", s.d, gotDot, wantDot, tol)
		}
		for i := range gotMV {
			if math.Abs(float64(gotMV[i])-float64(wantMV[i])) > tol {
				t.Fatalf("MulVecF32 shape %dx%d row %d: simd %v scalar %v", s.h, s.d, i, gotMV[i], wantMV[i])
			}
		}
		tolT := f32Tol(s.h, maxAbs32(xh)*2)
		for j := range gotMVT {
			if math.Abs(float64(gotMVT[j])-float64(wantMVT[j])) > tolT {
				t.Fatalf("MulVecTransF32 shape %dx%d col %d: simd %v scalar %v", s.h, s.d, j, gotMVT[j], wantMVT[j])
			}
		}
	}
}

// TestF32BatchMatchesPerSample pins the batch-path invariant the scoring
// stack relies on: batched f32 results are bit-identical to per-sample
// f32 results through the same dispatchers, SIMD or not.
func TestF32BatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	run := func(t *testing.T) {
		for _, s := range parityShapes {
			a := randomOf[float32](rng, s.n, s.d)
			w := randomOf[float32](rng, s.h, s.d)
			batch := NewOf[float32](s.n, s.h)
			MulBatchF32(batch, a, w)
			per := make([]float32, s.h)
			for i := 0; i < s.n; i++ {
				MulVecF32(per, w, a.Row(i))
				requireBitEqual(t, batch.Row(i), per, "MulBatchF32 vs MulVecF32")
			}

			h := randomOf[float32](rng, s.n, s.h)
			beta := randomOf[float32](rng, s.h, s.d)
			batchT := NewOf[float32](s.n, s.d)
			MulBatchTransF32(batchT, h, beta)
			perT := make([]float32, s.d)
			for i := 0; i < s.n; i++ {
				MulVecTransF32(perT, beta, h.Row(i))
				requireBitEqual(t, batchT.Row(i), perT, "MulBatchTransF32 vs MulVecTransF32")
			}
		}
	}
	t.Run("dispatch", run)
	if f32SIMD {
		f32SIMD = false
		t.Run("scalar", run)
		f32SIMD = true
	}
}

func TestMulVecBatchQ16MatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range parityShapes {
		w := make([]int32, s.h*s.d)
		for i := range w {
			w[i] = int32(rng.Intn(1<<20) - 1<<19)
		}
		xs := make([][]int32, s.n)
		for i := range xs {
			xs[i] = make([]int32, s.d)
			for j := range xs[i] {
				xs[i][j] = int32(rng.Intn(1<<20) - 1<<19)
			}
		}
		dst := make([]int32, s.n*s.h)
		MulVecBatchQ16(dst, w, xs, s.h)
		per := make([]int32, s.h)
		for i := range xs {
			MulVecQ16(per, w, xs[i])
			for r := range per {
				if dst[i*s.h+r] != per[r] {
					t.Fatalf("MulVecBatchQ16 sample %d row %d: %d want %d", i, r, dst[i*s.h+r], per[r])
				}
			}
		}
	}
}

func TestBatchKernelShapePanics(t *testing.T) {
	a := New(3, 4)
	w := New(2, 4)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"MulBatch dims", func() { MulBatch(New(3, 3), a, w) }},
		{"MulBatch inner", func() { MulBatch(New(3, 2), a, New(2, 5)) }},
		{"MulBatchRows ragged", func() {
			MulBatchRows(New(2, 2), [][]float64{make([]float64, 4), make([]float64, 3)}, w)
		}},
		{"MulBatchF32", func() { MulBatchF32(NewOf[float32](3, 3), NewOf[float32](3, 4), NewOf[float32](2, 4)) }},
		{"MulVecBatchQ16", func() {
			MulVecBatchQ16(make([]int32, 3), make([]int32, 8), [][]int32{make([]int32, 4)}, 2)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// f64Mode selects the inputs of the float64 SIMD parity sweep: finite
// values with exact and signed zeros and subnormals, then huge
// magnitudes whose products overflow to ±Inf (and whose Inf sums cancel
// to NaN), then NaN inputs.
type f64Mode int

const (
	f64Finite f64Mode = iota
	f64Overflow
	f64NaN
)

func fillSpecialF64(rng *rand.Rand, data []float64, mode f64Mode) {
	for i := range data {
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		switch k := rng.Intn(16); {
		case k == 0:
			data[i] = 0
		case k == 1:
			data[i] = math.Copysign(0, -1)
		case k == 2:
			data[i] = sign * math.Float64frombits(uint64(rng.Int63n(1<<52))) // subnormal
		case k == 3:
			data[i] = sign * 1e-300 * rng.Float64() // products underflow to ±0
		case k == 4 && mode >= f64Overflow:
			data[i] = sign * 1e300 * (1 + rng.Float64())
		case k == 5 && mode == f64NaN:
			data[i] = math.NaN()
		default:
			data[i] = rng.NormFloat64()
		}
	}
}

func specialF64(rng *rand.Rand, r, c int, mode f64Mode) *Matrix {
	m := New(r, c)
	fillSpecialF64(rng, m.Data, mode)
	return m
}

// requireSameF64 demands Float64bits-identical results, except that two
// NaNs match whatever their payloads.
func requireSameF64(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// f64Kernels runs every float64 kernel with a SIMD path on one set of
// operands and returns the outputs in a fixed order.
func f64Kernels(w *Matrix, x, hx []float64, a, hb *Matrix, s float64) [][]float64 {
	h, d, n := w.Rows, w.Cols, a.Rows
	mv := make([]float64, h)
	MulVec(mv, w, x)
	mvt := make([]float64, d)
	MulVecTrans(mvt, w, hx)
	mb := New(n, h)
	MulBatch(mb, a, w)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = a.Row(i)
	}
	mbr := New(n, h)
	MulBatchRows(mbr, xs, w)
	mbt := New(n, d)
	MulBatchTrans(mbt, hb, w)
	mul := New(n, d)
	Mul(mul, hb, w)
	mta := New(h, d)
	MulTransA(mta, hb, a)
	outer := w.Clone()
	outer.AddScaledOuter(s, hx, x)
	// v aliasing a row of m must keep the scalar update order.
	alias := w.Clone()
	alias.AddScaledOuter(s, hx, alias.Row(h-1))
	return [][]float64{mv, mvt, mb.Data, mbr.Data, mbt.Data, mul.Data, mta.Data, outer.Data, alias.Data}
}

var f64KernelNames = []string{"MulVec", "MulVecTrans", "MulBatch", "MulBatchRows", "MulBatchTrans",
	"Mul", "MulTransA", "AddScaledOuter", "AddScaledOuter(aliased v)"}

// TestF64SIMDBitExact pins the float64 SIMD contract: with the AVX2
// path on, every kernel returns Float64bits-identical results to the
// scalar generic code, on ragged shapes (vector lengths below and
// around the 4-lane step, every length mod 4, row counts not divisible
// by four) and on ±0, subnormal, overflowing and NaN inputs.
func TestF64SIMDBitExact(t *testing.T) {
	if !f64SIMDCPU {
		t.Skip("float64 SIMD kernels not available on this CPU")
	}
	defer SetF64SIMD(true)
	rng := rand.New(rand.NewSource(9))
	lens := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 22, 38, 511}
	rows := []int{1, 2, 3, 4, 5, 6, 7, 9, 22}
	for _, mode := range []f64Mode{f64Finite, f64Overflow, f64NaN} {
		for _, d := range lens {
			for _, h := range rows {
				n := 1 + (7*d+h)%9 // batch size, every value in 1..9
				w := specialF64(rng, h, d, mode)
				x := make([]float64, d)
				fillSpecialF64(rng, x, mode)
				hx := make([]float64, h)
				fillSpecialF64(rng, hx, mode)
				a := specialF64(rng, n, d, mode)
				hb := specialF64(rng, n, h, mode)
				s := rng.NormFloat64()

				SetF64SIMD(true)
				got := f64Kernels(w, x, hx, a, hb, s)
				SetF64SIMD(false)
				want := f64Kernels(w, x, hx, a, hb, s)
				for k := range want {
					requireSameF64(t, got[k], want[k],
						fmt.Sprintf("mode %d %s h=%d d=%d n=%d", mode, f64KernelNames[k], h, d, n))
				}
			}
		}
	}
}

// TestSigmoidF32SIMDMatchesScalar bounds the float32-evaluated SIMD
// sigmoid against the float64-evaluated fallback: a few float32 ulps
// relative (an absolute floor covers the clamped far negative tail),
// NaN in gives NaN out, and every vector length exercises the masked
// tail.
func TestSigmoidF32SIMDMatchesScalar(t *testing.T) {
	if !f32SIMD {
		t.Skip("SIMD kernels not available on this CPU")
	}
	defer func() { f32SIMD = true }()
	rng := rand.New(rand.NewSource(10))
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-40, -1e-40, 87, -87, 88.5, -88.5, 100, -100,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for n := 1; n <= 41; n++ {
		z := make([]float32, n)
		bias := make([]float32, n)
		for i := range z {
			if rng.Intn(4) == 0 {
				z[i] = specials[rng.Intn(len(specials))]
			} else {
				z[i] = float32(rng.NormFloat64() * 8)
			}
			bias[i] = float32(rng.NormFloat64())
		}
		got := append([]float32(nil), z...)
		want := append([]float32(nil), z...)
		f32SIMD = true
		SigmoidF32(got, bias)
		f32SIMD = false
		SigmoidF32(want, bias)
		f32SIMD = true
		for i := range want {
			g, w := float64(got[i]), float64(want[i])
			if math.IsNaN(w) || math.IsNaN(g) {
				if math.IsNaN(w) != math.IsNaN(g) {
					t.Fatalf("n=%d i=%d z=%v: simd %v scalar %v (NaN-ness differs)", n, i, z[i]+bias[i], g, w)
				}
				continue
			}
			if math.Abs(g-w) > 4e-7*math.Abs(w)+1e-37 {
				t.Fatalf("n=%d i=%d z=%v: simd %v scalar %v", n, i, z[i]+bias[i], g, w)
			}
		}
	}
}
