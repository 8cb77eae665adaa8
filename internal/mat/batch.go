package mat

// Batched scoring kernels: the N-samples-at-a-time counterpart of
// MulVec. Scoring a batch as one GEMM amortises the weight-matrix loads
// — per-sample matvecs at the paper's shapes (D up to 511, H 22..128)
// re-stream W from memory for every sample, so the matvec is bound by
// W/β bandwidth, not arithmetic.
//
// Every output element is the same 4-accumulator dotKernel the
// per-sample MulVec uses, with the weight row as the first operand —
// IEEE multiplication is commutative bit for bit and the accumulation
// order per element is untouched, so batch scores are bit-identical to
// per-sample scores at every element type, regardless of the sample
// blocking. Blocking only reorders which (sample, row) pair is computed
// when: a block of samples stays resident in L1 while each weight row is
// streamed once per block instead of once per sample.

// batchRowBlock is the sample-block size of the batched kernels: small
// enough that a block of input rows stays L1-resident next to one weight
// row at the paper's largest D (4·511·8 B ≈ 16 kB of f64 against a
// 48 kB L1d), large enough to cut weight traffic 4×.
const batchRowBlock = 4

// MulBatch computes dst = a·bᵀ without materialising bᵀ: dst[i][j] is
// the inner product of a's row i and b's row j. With a holding N input
// samples (N×D) and b a weight matrix (H×D), dst is the N×H batch of
// per-sample matvec results.
func MulBatch[E Element](dst, a, b *MatrixOf[E]) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(ErrShape)
	}
	dc := dst.Cols
	if simdF64[E](a.Cols) {
		ad := asF64(a.Data)
		if len(ad) < a.Rows*a.Cols {
			panic(ErrShape)
		}
		last := a.Rows - 1
		for i0 := 0; i0 <= last; i0 += batchRowBlock {
			s0, s1, s2, s3 := rowPtrs(ad, i0, last, a.Cols)
			mulBatchBlockF64(asF64(dst.Data), dc, i0, min(batchRowBlock, a.Rows-i0), asF64(b.Data), a.Cols, s0, s1, s2, s3)
		}
		return
	}
	for i0 := 0; i0 < a.Rows; i0 += batchRowBlock {
		i1 := i0 + batchRowBlock
		if i1 > a.Rows {
			i1 = a.Rows
		}
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			for i := i0; i < i1; i++ {
				dst.Data[i*dc+j] = dotKernel(brow, a.Row(i))
			}
		}
	}
}

// MulBatchTrans computes dst's row i = mᵀ·(a's row i) for every row of
// a — the batched output-layer pass. Each row is exactly one MulVecTrans
// call, so batched results are bit-identical to per-sample ones at every
// element type; the batch form exists so m (β in the scoring path) is
// walked while still cache-warm from the previous row.
func MulBatchTrans[E Element](dst, a, m *MatrixOf[E]) {
	if dst.Rows != a.Rows || a.Cols != m.Rows || dst.Cols != m.Cols {
		panic(ErrShape)
	}
	if simdF64[E](m.Cols) {
		mulBatchTransF64(asF64(dst.Data), asF64(a.Data), asF64(m.Data), a.Rows, m.Rows, m.Cols)
		return
	}
	for i := 0; i < a.Rows; i++ {
		MulVecTrans(dst.Row(i), m, a.Row(i))
	}
}

// MulBatchRows is MulBatch with the samples as a slice of rows instead
// of a packed matrix — the form the scoring path uses, avoiding a pack
// copy when the batch arrives as [][]float64. dst must be len(xs)×b.Rows
// and every sample must have length b.Cols.
func MulBatchRows[E Element](dst *MatrixOf[E], xs [][]E, b *MatrixOf[E]) {
	if dst.Rows != len(xs) || dst.Cols != b.Rows {
		panic(ErrShape)
	}
	dc := dst.Cols
	for i0 := 0; i0 < len(xs); i0 += batchRowBlock {
		i1 := i0 + batchRowBlock
		if i1 > len(xs) {
			i1 = len(xs)
		}
		for i := i0; i < i1; i++ {
			if len(xs[i]) != b.Cols {
				panic(ErrShape)
			}
		}
		if simdF64[E](b.Cols) {
			last := i1 - 1
			s0 := &asF64(xs[i0])[0]
			s1 := &asF64(xs[min(i0+1, last)])[0]
			s2 := &asF64(xs[min(i0+2, last)])[0]
			s3 := &asF64(xs[min(i0+3, last)])[0]
			mulBatchBlockF64(asF64(dst.Data), dc, i0, i1-i0, asF64(b.Data), b.Cols, s0, s1, s2, s3)
			continue
		}
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			for i := i0; i < i1; i++ {
				dst.Data[i*dc+j] = dotKernel(brow, xs[i])
			}
		}
	}
}
