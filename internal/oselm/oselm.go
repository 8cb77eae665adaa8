// Package oselm implements the Online Sequential Extreme Learning Machine
// (Liang et al. 2006) and its forgetting-factor variant used by ONLAD
// (Tsukada et al. 2020) — the discriminative substrate of the paper.
//
// An OS-ELM is a single-hidden-layer network y = β·g(W·x + b) whose input
// weights W and biases b are random and fixed; only the output weights β
// are learned, by recursive least squares. With the training chunk size
// fixed to one — the configuration the paper uses so "pseudo inverse
// operation of matrixes can be eliminated" — the update is a rank-1
// Sherman-Morrison recursion over the H×H matrix P:
//
//	P ← P − P·h·hᵀ·P / (1 + hᵀ·P·h)
//	β ← β + P·h·(tᵀ − hᵀ·β)
//
// With a forgetting factor α ∈ (0,1] (ONLAD), older samples decay:
//
//	P ← (1/α)·(P − P·h·hᵀ·P / (α + hᵀ·P·h))
//
// Memory per model is H² + H·M + H·D + H floats — independent of how many
// samples have been seen, which is what fits in a 264 kB microcontroller.
package oselm

import (
	"errors"
	"fmt"
	"math"

	"edgedrift/internal/mat"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// Activation selects the hidden-layer nonlinearity.
type Activation int

const (
	// Sigmoid is g(z) = 1/(1+e^(−z)), the paper's default.
	Sigmoid Activation = iota
	// Tanh is g(z) = tanh(z).
	Tanh
	// Linear is g(z) = z (useful for testing the RLS algebra exactly).
	Linear
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Config describes an OS-ELM instance.
type Config struct {
	// Inputs is the input dimension D (required).
	Inputs int
	// Hidden is the hidden-layer width H (required).
	Hidden int
	// Outputs is the output dimension M (required; equals Inputs for the
	// autoencoder use).
	Outputs int
	// Activation selects the hidden nonlinearity; default Sigmoid.
	Activation Activation
	// Forgetting is the ONLAD forgetting factor α. Zero means 1 (no
	// forgetting, plain OS-ELM). Must lie in (0, 1].
	Forgetting float64
	// Ridge is the regularisation λ used for P's initialisation
	// (P₀ = (1/λ)·I when training starts purely sequentially, or
	// (HᵀH + λI)⁻¹ for batch initialisation). Zero means 1e-3.
	Ridge float64
	// WeightScale bounds the uniform draw for W and b, [−s, s]. Zero
	// means 1.
	WeightScale float64
	// Precision selects the element type of the inference-side state:
	// W, b, β and the activation buffers. Float64, the zero value, is the
	// full-precision path. Float32 halves the inference footprint; the
	// RLS recursion keeps P and its scratch at float64 for conditioning
	// on both, so values cross the precision boundary once per sample.
	// Fixed16 is inference-only and rejected here: train at a float
	// precision and quantise via internal/fixed.
	Precision Precision
}

func (c Config) withDefaults() (Config, error) {
	if c.Inputs <= 0 || c.Hidden <= 0 || c.Outputs <= 0 {
		return c, fmt.Errorf("oselm: dimensions must be positive, got D=%d H=%d M=%d", c.Inputs, c.Hidden, c.Outputs)
	}
	if c.Forgetting == 0 {
		c.Forgetting = 1
	}
	if c.Forgetting <= 0 || c.Forgetting > 1 {
		return c, fmt.Errorf("oselm: forgetting factor %v out of (0,1]", c.Forgetting)
	}
	if c.Ridge == 0 {
		c.Ridge = 1e-3
	}
	if c.Ridge < 0 {
		return c, errors.New("oselm: negative ridge")
	}
	if c.WeightScale == 0 {
		c.WeightScale = 1
	}
	switch c.Precision {
	case Float64, Float32:
	case Fixed16:
		return c, errors.New("oselm: Fixed16 is inference-only; train at f64 or f32 and quantise via internal/fixed")
	default:
		return c, fmt.Errorf("oselm: unknown precision %v", c.Precision)
	}
	return c, nil
}

// Model is an OS-ELM instance. It is not safe for concurrent use.
type Model struct {
	cfg Config
	net inference   // W, b, β and their buffers at cfg.Precision (net.go)
	p   *mat.Matrix // Hidden×Hidden inverse-covariance state (always float64)

	// scratch buffers reused across calls
	h     []float64 // hidden activations (their float64 image below f64)
	ph    []float64 // P·h
	e     []float64 // residual tᵀ − hᵀβ
	ops   *opcount.Counter
	inits int // samples consumed since last Reset (sequential-only training)

	// RLS health watchdog state; see watchdog().
	wdPeriod   int     // trains between watchdog passes
	wdCount    int     // trains since the last pass
	wdResets   uint64  // divergence repairs since creation
	traceLimit float64 // tr(P) above this counts as divergence
}

// Watchdog defaults. The period keeps the O(H²) P scan amortised to a
// fraction of one Train (which is itself O(H²)); the trace limit is a
// large multiple of tr(P₀) = H/λ — RLS shrinks P as evidence
// accumulates, so sustained growth past that is divergence, not data.
const (
	defaultWatchdogPeriod     = 64
	defaultTraceLimitFactor   = 1e6
	watchdogTraceLimitMinimum = 1e12
	// watchdogAsymmetryTol is the relative symmetry-loss threshold above
	// which the watchdog re-symmetrises P. Independent rounding of the
	// (i,j)/(j,i) rank-1 updates sits many orders of magnitude below it.
	watchdogAsymmetryTol = 1e-8
)

// New creates a model with random input weights drawn from r and the
// purely sequential initialisation P = (1/λ)·I, β = 0. This is the
// configuration deployable on a microcontroller: no batch pseudo-inverse
// ever happens.
func New(cfg Config, r *rng.Rand) (*Model, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// The projection is drawn at float64 at every precision and narrowed,
	// so an f32 model with a given seed is the rounded image of the f64
	// model with that seed — which is what makes cross-precision parity
	// tests meaningful.
	w := make([]float64, c.Hidden*c.Inputs)
	bias := make([]float64, c.Hidden)
	r.FillUniform(w, -c.WeightScale, c.WeightScale)
	r.FillUniform(bias, -c.WeightScale, c.WeightScale)
	m := &Model{cfg: c, net: build(c, w, bias, make([]float64, c.Hidden*c.Outputs)), p: mat.New(c.Hidden, c.Hidden)}
	m.initScratch()
	m.resetState()
	return m, nil
}

// initScratch allocates the float64 RLS scratch and arms the watchdog.
func (m *Model) initScratch() {
	m.h = make([]float64, m.cfg.Hidden)
	m.ph = make([]float64, m.cfg.Hidden)
	m.e = make([]float64, m.cfg.Outputs)
	m.initWatchdog()
}

// initWatchdog sets the watchdog defaults from the configuration.
//
// The periodic watchdog defaults on only at Forgetting == 1 — the
// paper's deployed configuration. There tr(P) starts at H/λ and is
// non-increasing (each rank-1 update subtracts a PSD term), so trace
// growth or symmetry loss can only mean numerical divergence. With
// forgetting < 1, unbounded P growth — and eventual divergence — is the
// variant's documented pathology, the behaviour the paper's comparison
// tables record; silently repairing it would misrepresent that
// baseline, so the periodic watchdog stays off unless a caller opts in
// via SetWatchdogPeriod, which re-arms the per-sample denominator guard
// in Train along with the periodic scan.
func (m *Model) initWatchdog() {
	if m.cfg.Forgetting < 1 {
		m.wdPeriod = 0
		m.traceLimit = math.Inf(1)
		return
	}
	m.wdPeriod = defaultWatchdogPeriod
	m.traceLimit = defaultTraceLimitFactor * float64(m.cfg.Hidden) / m.cfg.Ridge
	if m.traceLimit < watchdogTraceLimitMinimum {
		m.traceLimit = watchdogTraceLimitMinimum
	}
}

// resetState restores the sequential-learning start state, keeping the
// random projection.
func (m *Model) resetState() {
	m.net.zeroBeta()
	m.p.Zero()
	m.p.AddDiag(1 / m.cfg.Ridge)
	m.inits = 0
	m.wdCount = 0
}

// Reset clears everything learned (β and P) while keeping the fixed
// random input weights, which is how the proposed method reconstructs a
// model after a drift: the projection stays, the least-squares state
// restarts.
func (m *Model) Reset() { m.resetState() }

// Config returns the (defaulted) configuration.
func (m *Model) Config() Config { return m.cfg }

// Precision returns the compute precision of the inference-side state.
func (m *Model) Precision() Precision { return m.cfg.Precision }

// SamplesSeen returns the number of sequential training samples folded in
// since creation or the last Reset.
func (m *Model) SamplesSeen() int { return m.inits }

// SetOps attaches an operation counter (nil detaches).
func (m *Model) SetOps(c *opcount.Counter) { m.ops = c }

// activateKernel applies g(z + b) in place: bias add and activation at
// E, the transcendental evaluated at float64 and narrowed. The
// per-sample and batched forward passes both call it, so they run the
// same element-wise arithmetic. The activation switch runs once per
// vector, not per element. The float32 kernels go through activate32.
func activateKernel[E mat.Element](dst, bias []E, act Activation) {
	bias = bias[:len(dst)]
	switch act {
	case Sigmoid:
		for i := range dst {
			z := dst[i] + bias[i]
			dst[i] = E(1 / (1 + math.Exp(float64(-z))))
		}
	case Tanh:
		for i := range dst {
			dst[i] = E(math.Tanh(float64(dst[i] + bias[i])))
		}
	case Linear:
		for i := range dst {
			dst[i] += bias[i]
		}
	}
}

// activate32 is the float32 backend's activation: the sigmoid runs
// through mat.SigmoidF32 (vectorised where the CPU allows), the others
// through activateKernel. Every float32 forward pass calls it, which
// keeps batched and per-sample float32 activations bit-identical.
func activate32(dst, bias []float32, act Activation) {
	if act == Sigmoid {
		mat.SigmoidF32(dst, bias)
		return
	}
	activateKernel(dst, bias, act)
}

// opsHidden charges the operation counter for one hidden-layer pass;
// the count is precision-independent.
func (m *Model) opsHidden() {
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Inputs)
	m.ops.AddAdd(m.cfg.Hidden)
	if m.cfg.Activation != Linear {
		m.ops.AddExp(m.cfg.Hidden)
		m.ops.AddDiv(m.cfg.Hidden)
	}
}

// checkInput panics unless x has the model's input dimension.
func (m *Model) checkInput(x []float64) {
	if len(x) != m.cfg.Inputs {
		panic(fmt.Sprintf("oselm: input dimension %d, want %d", len(x), m.cfg.Inputs))
	}
}

// hidden computes the hidden activations for x into dst at float64.
func (m *Model) hidden(dst, x []float64) {
	m.checkInput(x)
	m.net.hidden(dst, x)
	m.opsHidden()
}

// Predict writes the network output for x into dst (len Outputs) and
// returns dst. If dst is nil a new slice is allocated.
func (m *Model) Predict(dst, x []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.cfg.Outputs)
	}
	if len(dst) != m.cfg.Outputs {
		panic("oselm: bad output buffer length")
	}
	m.hidden(m.h, x)
	m.net.output(dst, m.h)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)
	return dst
}

// Train folds one (x, t) sample into the model with the rank-1 RLS
// update. This is the only training path used at deployment time.
func (m *Model) Train(x, t []float64) {
	if len(t) != m.cfg.Outputs {
		panic(fmt.Sprintf("oselm: target dimension %d, want %d", len(t), m.cfg.Outputs))
	}
	// The forward pass runs at the model's precision; the recursion below
	// runs on the activations' float64 image.
	h := m.h
	m.hidden(h, x)

	// ph = P·h
	mat.MulVec(m.ph, m.p, h)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Hidden)

	alpha := m.cfg.Forgetting
	denom := alpha + mat.Dot(h, m.ph)
	m.ops.AddMulAdd(m.cfg.Hidden)
	m.ops.AddAdd(1)

	// With P symmetric positive definite, hᵀPh ≥ 0 and denom ≥ α > 0. A
	// non-positive or non-finite denominator means the inverse-covariance
	// state has already diverged; folding the sample in would poison β as
	// well. Repair P instead of continuing with garbage. Gated on the
	// same switch as the periodic watchdog (see initWatchdog): forgetting
	// variants run unguarded by default because their divergence is the
	// recorded baseline behaviour, not a fault.
	if m.wdPeriod > 0 && (!(denom > 0) || math.IsInf(denom, 0)) {
		m.repairDivergence()
		return
	}

	// P ← (P − ph·phᵀ/denom) / alpha
	m.p.AddScaledOuter(-1/denom, m.ph, m.ph)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Hidden)
	m.ops.AddDiv(1)
	if alpha != 1 {
		m.p.Scale(1 / alpha)
		m.ops.AddMul(m.cfg.Hidden * m.cfg.Hidden)
	}

	// e = t − βᵀh (residual against the *pre-update* β, using post-update
	// P per the OS-ELM recursion: β ← β + P·h·eᵀ). The forward product
	// runs at the precision β lives at, so below float64 the residual
	// measures — and therefore corrects — the rounded model's real error
	// rather than an idealised float64 shadow's.
	m.net.output(m.e, h)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)
	for i := range m.e {
		m.e[i] = t[i] - m.e[i]
	}
	m.ops.AddAdd(m.cfg.Outputs)

	// gain k = P·h (with the updated P).
	mat.MulVec(m.ph, m.p, h)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Hidden)
	m.net.update(m.ph, m.e)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)

	m.inits++
	m.wdCount++
	if m.wdCount >= m.wdPeriod {
		m.wdCount = 0
		m.watchdog()
	}
}

// Health is the RLS watchdog's structured view of the model state.
type Health struct {
	// PTrace is tr(P), a cheap condition proxy: it starts at H/λ and
	// shrinks as evidence accumulates; sustained explosion means the
	// Sherman-Morrison recursion has diverged.
	PTrace float64
	// PFinite and BetaFinite report whether every element of P / β is
	// finite right now.
	PFinite, BetaFinite bool
	// WatchdogResets counts divergence repairs (P re-initialised from the
	// calibration path) since the model was created.
	WatchdogResets uint64
}

// HealthNow scans the learned state and reports the watchdog's view of
// it. The scan is O(H² + H·M); call it at diagnostic cadence, not per
// sample — the periodic watchdog already guards the hot path.
func (m *Model) HealthNow() Health {
	return Health{
		PTrace:         m.p.Trace(),
		PFinite:        mat.AllFinite(m.p.Data),
		BetaFinite:     m.net.betaFinite(),
		WatchdogResets: m.wdResets,
	}
}

// WatchdogResets returns how many times the watchdog re-initialised P.
func (m *Model) WatchdogResets() uint64 { return m.wdResets }

// SetWatchdogPeriod overrides how many Train calls elapse between
// watchdog passes; period ≤ 0 disables the watchdog entirely — both the
// periodic pass and the in-update denominator guard. A positive period
// arms both, including on forgetting models where the watchdog is off
// by default (see initWatchdog).
func (m *Model) SetWatchdogPeriod(period int) {
	m.wdPeriod = period
	m.wdCount = 0
}

// watchdog is the periodic RLS health pass: it re-symmetrises P (rank-1
// updates preserve symmetry only up to floating-point rounding, and the
// Sherman-Morrison recursion assumes a symmetric P) and repairs outright
// divergence — non-finite elements or a trace explosion — by
// re-initialising P from the calibration path P₀ = (1/λ)·I. β is kept
// when finite: the learned mapping is still valid, only the step-size
// state is rebuilt.
func (m *Model) watchdog() {
	if m.wdPeriod <= 0 {
		return
	}
	tr := m.p.Trace()
	if math.IsNaN(tr) || math.IsInf(tr, 0) || tr > m.traceLimit || !mat.AllFinite(m.p.Data) {
		m.repairDivergence()
		return
	}
	// Re-symmetrise only when symmetry loss is material relative to P's
	// own scale. The rank-1 kernel rounds (i,j) and (j,i) independently,
	// so ulp-level mismatch is normal background noise; averaging it away
	// would needlessly perturb the model's trajectory every period.
	// Material loss only appears when state has been corrupted upstream.
	if diff, mag := m.p.Asymmetry(); diff > watchdogAsymmetryTol*mag {
		m.p.SymmetrizeInPlace()
	}
}

// repairDivergence is the graceful-degradation path: the inverse
// covariance restarts from P₀ exactly as a fresh sequential calibration
// would, and β is zeroed only if it was itself poisoned.
func (m *Model) repairDivergence() {
	m.p.Zero()
	m.p.AddDiag(1 / m.cfg.Ridge)
	if !m.net.betaFinite() {
		m.net.zeroBeta()
	}
	m.wdCount = 0
	m.wdResets++
}

// InitTrainBatch performs the classic OS-ELM batch initialisation from
// N₀ ≥ 1 samples: P = (HᵀH + λI)⁻¹, β = P·Hᵀ·T. The paper's deployed
// configuration avoids this path on-device; it is provided for parity
// with the original algorithm and for host-side initial training.
func (m *Model) InitTrainBatch(xs, ts [][]float64) error {
	if len(xs) == 0 || len(xs) != len(ts) {
		return fmt.Errorf("oselm: batch init needs matched non-empty samples, got %d/%d", len(xs), len(ts))
	}
	n := len(xs)
	hm := mat.New(n, m.cfg.Hidden)
	tm := mat.New(n, m.cfg.Outputs)
	for i, x := range xs {
		m.hidden(hm.Row(i), x)
		t := ts[i]
		if len(t) != m.cfg.Outputs {
			return fmt.Errorf("oselm: target %d has dimension %d, want %d", i, len(t), m.cfg.Outputs)
		}
		copy(tm.Row(i), t)
	}
	gram := mat.New(m.cfg.Hidden, m.cfg.Hidden)
	mat.RidgeGram(gram, hm, m.cfg.Ridge)
	if err := mat.Inverse(m.p, gram); err != nil {
		return fmt.Errorf("oselm: batch init: %w", err)
	}
	ht := mat.New(m.cfg.Hidden, m.cfg.Outputs)
	mat.MulTransA(ht, hm, tm)
	// Solve at float64 and narrow once — batch init is a host-side path,
	// so the conditioning of the normal equations wins over keeping every
	// intermediate at the deployment width.
	beta := mat.New(m.cfg.Hidden, m.cfg.Outputs)
	mat.Mul(beta, m.p, ht)
	m.net.setBeta(beta.Data)
	m.inits = n
	return nil
}

// Beta returns a deep copy of the learned output weights at float64,
// mainly for tests and serialisation.
func (m *Model) Beta() *mat.Matrix {
	b := mat.New(m.cfg.Hidden, m.cfg.Outputs)
	_, _, beta := m.net.weights()
	copy(b.Data, beta)
	return b
}

// Weights returns the raw parameters at float64 — input weights W
// (row-major Hidden×Inputs), biases, and output weights β (row-major
// Hidden×Outputs) — for quantisation and export. The float64 backend
// returns live views the caller must not mutate; the float32 backend
// returns widened copies.
func (m *Model) Weights() (w, bias, beta []float64) { return m.net.weights() }

// MemoryBytes reports the number of bytes of persistent state the model
// retains (the quantity audited in the paper's Table 4), derived from
// the backend's element width. Scratch and staging buffers are included
// since a deployed implementation must also hold them; P and the RLS
// scratch are counted at float64 on every backend because that is where
// they live (see Config.Precision).
func (m *Model) MemoryBytes() int {
	training := 8 * (len(m.p.Data) + len(m.h) + len(m.ph) + len(m.e))
	return training + m.cfg.Precision.Bytes()*m.net.elems()
}

// InferenceBytes reports the bytes of inference-side state alone — the
// projection, biases, output weights and activation buffer. This is the
// footprint a deploy-only port carries (the RLS training state stays
// host-side) and it scales directly with the element width: float32 is
// exactly half of float64 at equal shape.
func (m *Model) InferenceBytes() int {
	c := m.cfg
	return c.Precision.Bytes() * (c.Hidden*c.Inputs + c.Hidden + c.Hidden*c.Outputs + c.Hidden)
}
