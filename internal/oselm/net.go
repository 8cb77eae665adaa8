package oselm

import (
	"math"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/mat"
)

// inference is a model's inference-side state at its compute precision:
// the random projection W and biases b, the learned output weights β
// and the buffers around them. The one implementation is the generic
// net[E]; Model holds it as this interface so that P and the RLS
// scratch stay float64 whatever E is. Values cross between the float64
// stream and E inside the net.
type inference interface {
	// hidden computes g(W·x + b) and leaves the activations at float64
	// in dst.
	hidden(dst, x []float64)
	// output writes βᵀ·h into dst, h being the activations hidden last
	// wrote into the float64 buffer hw.
	output(dst, hw []float64)
	// update folds the RLS correction β ← β + k·eᵀ.
	update(k, e []float64)
	// forwardBatch runs the forward pass for len(xs) ≤ batchChunk
	// samples; batchOutput(i, buf) then returns sample i's output at
	// float64, in buf or in place.
	forwardBatch(xs [][]float64)
	batchOutput(i int, buf []float64) []float64

	// weights returns W, b and β at float64: live views at float64,
	// widened copies below.
	weights() (w, bias, beta []float64)
	setBeta(beta []float64)
	zeroBeta()
	betaFinite() bool
	// adopt copies src's W, b and β; sameProjection compares W and b bit
	// for bit, and hashProjection feeds their bits to put. src and o
	// must be at the same precision.
	adopt(src inference)
	sameProjection(o inference) bool
	hashProjection(put func(uint64))
	save(e *ckpt.Encoder, width int)
	// elems counts the elements of E the net retains, scratch included.
	elems() int
}

// kernels binds an element type to its forward kernels and to the
// crossing between it and the float64 stream. At float64 the crossing
// is the identity and nothing is staged.
type kernels[E mat.Element] struct {
	mulVec, mulVecTrans func(dst []E, m *mat.MatrixOf[E], x []E)
	// mulBatch computes dst = X·wᵀ for the samples xs, narrowing them
	// through stage where E is not float64.
	mulBatch      func(dst *mat.MatrixOf[E], xs [][]float64, w, stage *mat.MatrixOf[E])
	mulBatchTrans func(dst, a, m *mat.MatrixOf[E])
	activate      func(dst, bias []E, act Activation)
	// narrow returns x at E: x itself at float64, else converted into
	// buf. widen is the reverse, allocating buf when it is nil. twin
	// returns where to compute an E result bound for dst: dst itself at
	// float64, else buf.
	narrow, twin func(buf []E, x []float64) []E
	widen        func(buf []float64, v []E) []float64
	// stage allocates an n-element staging buffer; nil at float64.
	stage func(n int) []E
	bits  func(E) uint64
}

// f64Kernels keeps the generic, bit-exact kernels the goldens pin.
var f64Kernels = kernels[float64]{
	mulVec:      mat.MulVec[float64],
	mulVecTrans: mat.MulVecTrans[float64],
	mulBatch: func(dst *mat.Matrix, xs [][]float64, w, _ *mat.Matrix) {
		mat.MulBatchRows(dst, xs, w)
	},
	mulBatchTrans: mat.MulBatchTrans[float64],
	activate:      activateKernel[float64],
	narrow:        same,
	twin:          same,
	widen:         same,
	stage:         func(int) []float64 { return nil },
	bits:          math.Float64bits,
}

// f32Kernels takes the float32 entry points, which dispatch to SIMD
// kernels where the CPU has them. Per-sample and batched passes share
// one kernel per operation, so their outputs agree bit for bit.
var f32Kernels = kernels[float32]{
	mulVec:      mat.MulVecF32,
	mulVecTrans: mat.MulVecTransF32,
	mulBatch: func(dst *mat.MatrixOf[float32], xs [][]float64, w, stage *mat.MatrixOf[float32]) {
		xb := rows(stage, len(xs))
		for i, x := range xs {
			mat.ConvertVec(xb.Row(i), x)
		}
		mat.MulBatchF32(dst, xb, w)
	},
	mulBatchTrans: mat.MulBatchTransF32,
	activate:      activate32,
	narrow:        convert[float32, float64],
	twin:          func(buf []float32, _ []float64) []float32 { return buf },
	widen: func(buf []float64, v []float32) []float64 {
		if buf == nil {
			buf = make([]float64, len(v))
		}
		return convert(buf, v)
	},
	stage: func(n int) []float32 { return make([]float32, n) },
	bits:  func(v float32) uint64 { return uint64(math.Float32bits(v)) },
}

func same(_, v []float64) []float64 { return v }

func convert[D, S mat.Element](buf []D, v []S) []D {
	mat.ConvertVec(buf, v)
	return buf
}

// net is the inference block at element type E.
type net[E mat.Element] struct {
	k    *kernels[E]
	act  Activation
	w    *mat.MatrixOf[E] // Hidden×Inputs random input weights
	bias []E              // Hidden biases
	beta *mat.MatrixOf[E] // Hidden×Outputs learned output weights

	// Staging, nil at float64: activations, narrowed input, forward
	// output, and the narrowed RLS gain and residual.
	h, x, o, u, e []E

	// Batch scratch, allocated on the first batch call: batchChunk rows
	// each, resliced in place to the chunk in hand. The kernels take
	// pointers to these fields, not to local views, because a pointer
	// passed through the kernel table escapes and would allocate.
	xb, hb, ob mat.MatrixOf[E]
}

// build returns the inference block for c.Precision with W, b and β
// narrowed from float64 slabs. With loadBody, it is the only place a
// model's precision picks its kernels.
func build(c Config, w, bias, beta []float64) inference {
	if c.Precision == Float32 {
		return buildAt(&f32Kernels, c, w, bias, beta)
	}
	return buildAt(&f64Kernels, c, w, bias, beta)
}

func buildAt[E mat.Element](k *kernels[E], c Config, w, bias, beta []float64) inference {
	return newNet(k, c, convert(make([]E, len(w)), w), convert(make([]E, len(bias)), bias),
		convert(make([]E, len(beta)), beta))
}

// loadNet decodes W, b and β at E; nil on failure.
func loadNet[E mat.Element](d *ckpt.Decoder, k *kernels[E], c Config, width int) inference {
	h := uint64(c.Hidden)
	w := ckpt.Floats[E](d, h*uint64(c.Inputs), width)
	bias := ckpt.Floats[E](d, h, width)
	beta := ckpt.Floats[E](d, h*uint64(c.Outputs), width)
	if d.Err() != nil {
		return nil
	}
	return newNet(k, c, w, bias, beta)
}

// newNet adopts the slabs and allocates the staging E needs.
func newNet[E mat.Element](k *kernels[E], c Config, w, bias, beta []E) *net[E] {
	return &net[E]{
		k:    k,
		act:  c.Activation,
		w:    mat.NewFromData(c.Hidden, c.Inputs, w),
		bias: bias,
		beta: mat.NewFromData(c.Hidden, c.Outputs, beta),
		h:    k.stage(c.Hidden),
		x:    k.stage(c.Inputs),
		o:    k.stage(c.Outputs),
		u:    k.stage(c.Hidden),
		e:    k.stage(c.Outputs),
	}
}

// rows reslices m in place to its first n rows.
func rows[E mat.Element](m *mat.MatrixOf[E], n int) *mat.MatrixOf[E] {
	m.Rows = n
	m.Data = m.Data[:n*m.Cols]
	return m
}

func (n *net[E]) hidden(dst, x []float64) {
	h := n.k.twin(n.h, dst)
	n.k.mulVec(h, n.w, n.k.narrow(n.x, x))
	n.k.activate(h, n.bias, n.act)
	n.k.widen(dst, h)
}

func (n *net[E]) output(dst, hw []float64) {
	o := n.k.twin(n.o, dst)
	n.k.mulVecTrans(o, n.beta, n.k.twin(n.h, hw))
	n.k.widen(dst, o)
}

func (n *net[E]) update(k, e []float64) {
	n.beta.AddScaledOuter(1, n.k.narrow(n.u, k), n.k.narrow(n.e, e))
}

func (n *net[E]) forwardBatch(xs [][]float64) {
	if n.hb.Data == nil {
		hid, in, out := n.w.Rows, n.w.Cols, n.beta.Cols
		n.xb = mat.MatrixOf[E]{Rows: batchChunk, Cols: in, Data: n.k.stage(batchChunk * in)}
		n.hb = *mat.NewOf[E](batchChunk, hid)
		n.ob = *mat.NewOf[E](batchChunk, out)
	}
	hb := rows(&n.hb, len(xs))
	n.k.mulBatch(hb, xs, n.w, &n.xb)
	for i := range xs {
		n.k.activate(hb.Row(i), n.bias, n.act)
	}
	n.k.mulBatchTrans(rows(&n.ob, len(xs)), hb, n.beta)
}

func (n *net[E]) batchOutput(i int, buf []float64) []float64 {
	return n.k.widen(buf, n.ob.Row(i))
}

func (n *net[E]) weights() (w, bias, beta []float64) {
	return n.k.widen(nil, n.w.Data), n.k.widen(nil, n.bias), n.k.widen(nil, n.beta.Data)
}

func (n *net[E]) setBeta(beta []float64) { mat.ConvertVec(n.beta.Data, beta) }
func (n *net[E]) zeroBeta()              { n.beta.Zero() }
func (n *net[E]) betaFinite() bool       { return mat.AllFinite(n.beta.Data) }

func (n *net[E]) adopt(src inference) {
	s := src.(*net[E])
	copy(n.w.Data, s.w.Data)
	copy(n.bias, s.bias)
	copy(n.beta.Data, s.beta.Data)
}

func (n *net[E]) sameProjection(o inference) bool {
	on := o.(*net[E])
	return n.sameBits(n.w.Data, on.w.Data) && n.sameBits(n.bias, on.bias)
}

func (n *net[E]) sameBits(a, b []E) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if n.k.bits(a[i]) != n.k.bits(b[i]) {
			return false
		}
	}
	return true
}

func (n *net[E]) hashProjection(put func(uint64)) {
	for _, s := range [][]E{n.w.Data, n.bias} {
		for _, v := range s {
			put(n.k.bits(v))
		}
	}
}

func (n *net[E]) save(e *ckpt.Encoder, width int) {
	ckpt.PutFloats(e, n.w.Data, width)
	ckpt.PutFloats(e, n.bias, width)
	ckpt.PutFloats(e, n.beta.Data, width)
}

func (n *net[E]) elems() int {
	return len(n.w.Data) + len(n.bias) + len(n.beta.Data) +
		len(n.h) + len(n.x) + len(n.o) + len(n.u) + len(n.e) +
		cap(n.xb.Data) + cap(n.hb.Data) + cap(n.ob.Data)
}
