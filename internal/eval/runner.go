package eval

import (
	"fmt"
	"time"

	"edgedrift/internal/core"
	"edgedrift/internal/health"
	"edgedrift/internal/kmeans"
	"edgedrift/internal/model"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
	"edgedrift/internal/stats"
	"edgedrift/internal/workpool"
)

// MethodRun is one deferred, independent method evaluation: a named
// closure that builds its own model/detector and replays a stream.
type MethodRun struct {
	Name string
	Run  func() (*RunResult, error)
}

// RunSet evaluates independent method runs concurrently on the shared
// pool and returns the results in input order (pre-assigned slots, so
// concurrency never reorders a table). The first failing run aborts the
// set with its error, wrapped with the run's name.
func RunSet(runs ...MethodRun) ([]*RunResult, error) {
	out := make([]*RunResult, len(runs))
	p := workpool.New(0)
	for i, mr := range runs {
		i, mr := i, mr
		p.Go(func() error {
			res, err := mr.Run()
			if err != nil {
				return fmt.Errorf("%s: %w", mr.Name, err)
			}
			out[i] = res
			return nil
		})
	}
	if err := p.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// RunConfig controls stream evaluation.
type RunConfig struct {
	// DriftAt is the ground-truth drift index (-1 when the stream has no
	// drift or it is unknown).
	DriftAt int
	// TraceWindow is the moving-accuracy window; 0 means 200.
	TraceWindow int
	// TraceEvery records a trace point every k samples; 0 means 50.
	TraceEvery int
}

func (c RunConfig) withDefaults() RunConfig {
	if c.TraceWindow == 0 {
		c.TraceWindow = 200
	}
	if c.TraceEvery == 0 {
		c.TraceEvery = 50
	}
	if c.DriftAt == 0 {
		c.DriftAt = -1
	}
	return c
}

// RunResult captures one method's behaviour over one stream.
type RunResult struct {
	// Name identifies the method.
	Name string
	// Accuracy is the overall fraction of correctly labelled samples
	// (NaN-free: 0 when the stream is unlabelled).
	Accuracy float64
	// PreDrift and PostDrift split Accuracy at the ground-truth drift.
	PreDrift, PostDrift float64
	// Trace is the windowed accuracy over time (Figure 4's curves).
	Trace Series
	// Detections are 0-based sample indices where drift was signalled.
	Detections []int
	// Delay is Detections' first entry at/after DriftAt minus DriftAt;
	// -1 when never detected (or unlabelled ground truth).
	Delay int
	// Ops tallies modelled floating-point work over the whole stream.
	Ops opcount.Counter
	// HostTime is the measured wall-clock time of the run.
	HostTime time.Duration
	// MemoryBytes is the method's retained state (model + detector).
	MemoryBytes int
	// DetectorBytes is the detector-only overhead (excluding the shared
	// discriminative model) — the quantity Table 4 compares.
	DetectorBytes int
	// Reconstructions counts completed model rebuilds.
	Reconstructions int
	// Health is the detector's end-of-stream health snapshot (nil only
	// for the detector-less passive baselines).
	Health *health.Snapshot
}

// accTracker accumulates overall/pre/post accuracy and the trace.
type accTracker struct {
	cfg     RunConfig
	mapper  *LabelMapper
	moving  *stats.MovingAccuracy
	correct int
	total   int
	preC    int
	preN    int
	trace   Series
}

func newAccTracker(cfg RunConfig, predClasses, trueClasses int) *accTracker {
	return &accTracker{
		cfg:    cfg,
		mapper: NewLabelMapper(predClasses, trueClasses),
		moving: stats.NewMovingAccuracy(cfg.TraceWindow),
	}
}

// observe scores a prediction against truth at stream index i.
func (a *accTracker) observe(i, pred, truth int) {
	mapped := a.mapper.Map(pred)
	correct := mapped == truth
	a.mapper.Observe(pred, truth)
	a.moving.Observe(correct)
	a.total++
	if correct {
		a.correct++
	}
	if a.cfg.DriftAt >= 0 && i < a.cfg.DriftAt {
		a.preN++
		if correct {
			a.preC++
		}
	}
	if i%a.cfg.TraceEvery == 0 {
		a.trace.X = append(a.trace.X, float64(i))
		a.trace.Y = append(a.trace.Y, a.moving.Value())
	}
}

func (a *accTracker) fill(res *RunResult) {
	if a.total > 0 {
		res.Accuracy = float64(a.correct) / float64(a.total)
	}
	if a.preN > 0 {
		res.PreDrift = float64(a.preC) / float64(a.preN)
	}
	if post := a.total - a.preN; post > 0 && a.cfg.DriftAt >= 0 {
		res.PostDrift = float64(a.correct-a.preC) / float64(post)
	}
	res.Trace = a.trace
}

// computeDelay resolves the detection delay for a result.
func computeDelay(detections []int, driftAt int) int {
	if driftAt < 0 {
		return -1
	}
	for _, d := range detections {
		if d >= driftAt {
			return d - driftAt
		}
	}
	return -1
}

// RunProposed evaluates the paper's method: the core detector drives both
// detection and adaptation. ys may be nil for unlabelled streams.
func RunProposed(det *core.Detector, xs [][]float64, ys []int, cfg RunConfig) *RunResult {
	c := cfg.withDefaults()
	res := &RunResult{Name: fmt.Sprintf("proposed (W=%d)", det.Config().Window)}
	var ops opcount.Counter
	det.SetOps(&ops)
	var acc *accTracker
	if ys != nil {
		acc = newAccTracker(c, det.Model().Classes(), maxLabel(ys)+1)
	}
	start := time.Now()
	for i, x := range xs {
		r := det.Process(x)
		if r.DriftDetected {
			res.Detections = append(res.Detections, i)
			if acc != nil {
				acc.mapper.Reset()
			}
		}
		if acc != nil {
			acc.observe(i, r.Label, ys[i])
		}
	}
	res.HostTime = time.Since(start)
	res.Ops = ops
	res.MemoryBytes = det.MemoryBytes()
	res.DetectorBytes = det.MemoryBytes() - det.Model().MemoryBytes()
	res.Reconstructions = det.Reconstructions()
	h := det.Health()
	res.Health = &h
	res.Delay = computeDelay(res.Detections, c.DriftAt)
	if acc != nil {
		acc.fill(res)
	}
	res.Trace.Name = res.Name
	return res
}

// RunStatic evaluates a model with no drift countermeasure at all (the
// paper's "Baseline"). The model only predicts.
func RunStatic(m *model.Multi, xs [][]float64, ys []int, cfg RunConfig) *RunResult {
	return runPassive("baseline (no detection)", m, xs, ys, cfg, false)
}

// RunONLAD evaluates the passive approach: the model (built with a
// forgetting factor) sequentially trains its closest instance on every
// sample, with no detector.
func RunONLAD(m *model.Multi, xs [][]float64, ys []int, cfg RunConfig) *RunResult {
	return runPassive("ONLAD (forgetting)", m, xs, ys, cfg, true)
}

func runPassive(name string, m *model.Multi, xs [][]float64, ys []int, cfg RunConfig, train bool) *RunResult {
	c := cfg.withDefaults()
	res := &RunResult{Name: name, Delay: -1}
	var ops opcount.Counter
	m.SetOps(&ops)
	var acc *accTracker
	if ys != nil {
		acc = newAccTracker(c, m.Classes(), maxLabel(ys)+1)
	}
	start := time.Now()
	for i, x := range xs {
		var label int
		if train {
			label, _ = m.TrainClosest(x)
		} else {
			label, _ = m.Predict(x)
		}
		if acc != nil {
			acc.observe(i, label, ys[i])
		}
	}
	res.HostTime = time.Since(start)
	res.Ops = ops
	res.MemoryBytes = m.MemoryBytes()
	res.DetectorBytes = 0
	if acc != nil {
		acc.fill(res)
	}
	res.Trace.Name = res.Name
	return res
}

// The capability interfaces below are what remains of the old
// per-detector adapter layer: every detector in this repository is a
// core.Streaming, and the harness discovers anything beyond that
// contract — batch sizing, op accounting, re-baselining, re-arming — by
// capability assertion instead of per-detector wrapper code.

// BatchSized is exposed by batch-based stages (QuantTree, SPLL) that
// accumulate a ν-sample window between tests; RunBatch sizes its
// adaptation window to match.
type BatchSized interface {
	BatchSize() int
}

// OpsSettable is exposed by stages whose compute kernels can report into
// a shared operation counter.
type OpsSettable interface {
	SetOps(*opcount.Counter)
}

// Retrainer is implemented by batch stages that can re-baseline their
// reference model on new data after an adaptation; RunBatch invokes it
// with the buffered window so the detector stops firing against a stale
// reference once the model has adapted.
type Retrainer interface {
	Retrain(train [][]float64, r *rng.Rand) error
}

// Resettable is implemented by stages that can be re-armed to their
// as-constructed state after a drift-triggered model rebuild (DDM does
// this implicitly on detection; ADWIN exposes an explicit Reset).
type Resettable interface {
	Reset()
}

// RunBatch evaluates a batch detector paired with the shared
// discriminative model. The detector is any core.Streaming that is also
// BatchSized — there is no batch-specific Observe contract any more. On
// detection the model is rebuilt from the detector's most recent window:
// k-means labels the buffered samples and each instance is
// batch-initialised on its cluster — the adaptation a batch method can
// afford because it already stores the window.
func RunBatch(name string, m *model.Multi, obs core.Streaming, xs [][]float64, ys []int, cfg RunConfig, r *rng.Rand) *RunResult {
	bs, ok := obs.(BatchSized)
	if !ok {
		panic(fmt.Sprintf("eval: %s is not BatchSized; RunBatch needs the batch window to adapt from", name))
	}
	c := cfg.withDefaults()
	res := &RunResult{Name: name}
	var ops opcount.Counter
	m.SetOps(&ops)
	if o, ok := obs.(OpsSettable); ok {
		o.SetOps(&ops)
	}
	var acc *accTracker
	if ys != nil {
		acc = newAccTracker(c, m.Classes(), maxLabel(ys)+1)
	}
	window := make([][]float64, 0, bs.BatchSize())
	start := time.Now()
	for i, x := range xs {
		label, _ := m.Predict(x)
		if acc != nil {
			acc.observe(i, label, ys[i])
		}
		window = append(window, x)
		if len(window) > bs.BatchSize() {
			window = window[1:]
		}
		if obs.Process(x).DriftDetected {
			res.Detections = append(res.Detections, i)
			batchAdapt(m, window, &ops, r)
			if rt, ok := obs.(Retrainer); ok {
				// Re-baseline the detector on the same window; a batch
				// method has the data in memory, which is exactly its
				// cost in Table 4.
				if err := rt.Retrain(window, r); err == nil {
					res.Reconstructions++
				}
			} else {
				res.Reconstructions++
			}
			if acc != nil {
				acc.mapper.Reset()
			}
		}
	}
	res.HostTime = time.Since(start)
	res.Ops = ops
	res.MemoryBytes = m.MemoryBytes() + obs.MemoryBytes()
	res.DetectorBytes = obs.MemoryBytes()
	h := obs.Health()
	res.Health = &h
	res.Delay = computeDelay(res.Detections, c.DriftAt)
	if acc != nil {
		acc.fill(res)
	}
	res.Trace.Name = res.Name
	return res
}

// batchAdapt rebuilds the model from a buffered window: k-means labels
// the window into C clusters, the model resets, and each instance is
// batch-initialised on its cluster's samples.
func batchAdapt(m *model.Multi, window [][]float64, ops *opcount.Counter, r *rng.Rand) {
	if len(window) == 0 {
		return
	}
	classes := m.Classes()
	km := kmeans.Run(window, kmeans.Config{K: classes}, r)
	m.Reset()
	if err := m.InitBatch(window, km.Assign); err != nil {
		// Degenerate windows (a cluster with fewer samples than needed)
		// fall back to sequential training, which always succeeds.
		for i, x := range window {
			m.Train(x, km.Assign[i])
		}
	}
	// The clustering and the batch pseudo-inverse are not instrumented at
	// the kernel level; account their dominant terms explicitly so the
	// device-time model sees the adaptation cost. k-means: iters·n·k·D
	// MACs; batch init: per instance ≈ n·H·D (hidden) + H²·n (gram) +
	// H³ (inverse).
	n, dims := len(window), len(window[0])
	hidden := m.Config().Hidden
	ops.AddMulAdd(km.Iterations * n * classes * dims)
	ops.AddMulAdd(n*hidden*dims + n*hidden*hidden + hidden*hidden*hidden)
}

func maxLabel(ys []int) int {
	max := 0
	for _, y := range ys {
		if y > max {
			max = y
		}
	}
	return max
}
