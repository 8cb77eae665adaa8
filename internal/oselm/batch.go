package oselm

// Batched forward pass: N samples through the autoencoder as two GEMMs
// (X·Wᵀ then H·β) with the bias/activation pass fused between them,
// instead of N pairs of matvecs. The win is memory traffic: per-sample
// scoring re-streams W and β for every sample, so at the paper's shapes
// the matvec is bandwidth-bound; the batched kernels stream each weight
// row once per block of samples. Arithmetic per sample is unchanged and
// — by the kernel-parity invariants in internal/mat — bit-identical to
// the per-sample path at every precision, which is what lets the
// detector layer batch scoring without perturbing the paper's results.

// batchChunk caps how many samples one batched forward processes: large
// enough to amortise the weight streams, small enough that the scratch
// (chunk·(D+H+M) elements) stays a few hundred kB at the paper's largest
// shapes, and the unit the layers above use to size their own buffers.
const batchChunk = 64

// forwardBatch runs the forward pass for len(chunk) ≤ batchChunk
// samples, leaving per-sample outputs for net.batchOutput. The op
// counter is charged exactly as len(chunk) Predict calls would charge
// it.
func (m *Model) forwardBatch(chunk [][]float64) {
	if len(chunk) > batchChunk {
		panic("oselm: forwardBatch chunk exceeds batchChunk")
	}
	for _, x := range chunk {
		m.checkInput(x)
	}
	m.net.forwardBatch(chunk)
	for range chunk {
		m.opsHidden()
		m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)
	}
}
