package eval

import (
	"fmt"
	"sort"

	"edgedrift/internal/core"
	"edgedrift/internal/datasets/coolingfan"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/detectors/quanttree"
	"edgedrift/internal/detectors/spll"
	"edgedrift/internal/device"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
	"edgedrift/internal/stats"
	"edgedrift/internal/workpool"
)

// Figure is a reproduced figure: named series over a shared x axis.
type Figure struct {
	Name   string
	XLabel string
	YLabel string
	Series []Series
}

// Outcome bundles everything one experiment produces.
type Outcome struct {
	Tables  []*Table
	Figures []Figure
}

// Experiment is a registered, regenerable paper artifact.
type Experiment struct {
	// ID is the registry key ("table2", "fig4", ...).
	ID string
	// Title describes the paper artifact.
	Title string
	// Run regenerates the artifact; seed controls all randomness.
	Run func(seed uint64) *Outcome
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Figure 1: four concept drift types", Run: Figure1},
		{ID: "fig3", Title: "Figure 3: centroid geometry around a drift", Run: Figure3},
		{ID: "fig4", Title: "Figure 4: accuracy changes on NSL-KDD", Run: Figure4},
		{ID: "table2", Title: "Table 2: accuracy and detection delay on NSL-KDD", Run: Table2},
		{ID: "table3", Title: "Table 3: window size vs detection delay on cooling fan", Run: Table3},
		{ID: "table4", Title: "Table 4: memory utilization", Run: Table4},
		{ID: "table5", Title: "Table 5: execution time for 700 samples on Raspberry Pi 4", Run: Table5},
		{ID: "table6", Title: "Table 6: execution time breakdown on Raspberry Pi Pico", Run: Table6},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Shared setup
// ---------------------------------------------------------------------------

// Paper hyper-parameters (§4.2).
const (
	nslHidden         = 22
	nslQTBatch        = 480
	nslQTBins         = 32
	nslSPLLBatch      = 480
	nslONLADForget    = 0.97
	fanHidden         = 22
	fanQTBatch        = 235
	fanQTBins         = 16
	fanSPLLBatch      = 235
	fanONLADForget    = 0.99
	fanTrainN         = 120
	proposedNReconNSL = 1500
	proposedNReconFan = 200
)

// modelPrecision is the numeric backend every experiment's model is
// built with. The zero value (oselm.Float64) reproduces the paper's
// tables bit-identically; SetPrecision(oselm.Float32) re-runs the same
// experiments on the float32 inference backend so Table-2 parity can be
// measured against the f64 goldens.
var modelPrecision oselm.Precision

// SetPrecision selects the numeric backend for subsequently-run
// experiments. Only Float64 and Float32 are trainable; the Q16.16
// backend is inference-only and is rejected here (quantise a fitted
// monitor via edgedrift.Monitor.QuantizeQ16 instead). Not safe to call
// concurrently with a running experiment.
func SetPrecision(p oselm.Precision) error {
	switch p {
	case oselm.Float64, oselm.Float32:
		modelPrecision = p
		return nil
	default:
		return fmt.Errorf("eval: precision %v is not trainable (valid: f64, f32)", p)
	}
}

// ModelPrecision reports the backend experiments currently build with.
func ModelPrecision() oselm.Precision { return modelPrecision }

// trainPrequential trains the model sample-by-sample while recording the
// winner anomaly score of each sample *before* training on it — the
// unbiased estimate of deployment-time scores. It returns μ + 2σ of the
// second-half scores, the harness's calibration of the paper's tuning
// parameter θ_error (post-training scores are overfit-low and would open
// a check window on every sample).
func trainPrequential(m *model.Multi, xs [][]float64, ys []int) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("eval: %d samples vs %d labels", len(xs), len(ys))
	}
	var tail stats.Running
	for i, x := range xs {
		_, score := m.Predict(x)
		if i >= len(xs)/2 {
			tail.Observe(score)
		}
		m.Train(x, ys[i])
	}
	return tail.Mean() + 2*tail.Std(), nil
}

// nslModel builds and initially trains a fresh discriminative model on
// the NSL-KDD surrogate.
func nslModel(ds *nslkdd.Dataset, forgetting float64, seed uint64) (*model.Multi, error) {
	m, err := model.New(model.Config{
		Classes:    2,
		Inputs:     nslkdd.Features,
		Hidden:     nslHidden,
		Forgetting: forgetting,
		Ridge:      1e-2,
		Precision:  modelPrecision,
	}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	if err := m.InitSequential(ds.TrainX, ds.TrainY); err != nil {
		return nil, err
	}
	return m, nil
}

// fanModel builds and trains the single-class cooling-fan model.
func fanModel(trainX [][]float64, trainY []int, forgetting float64, seed uint64) (*model.Multi, error) {
	m, err := model.New(model.Config{
		Classes:    1,
		Inputs:     coolingfan.Features,
		Hidden:     fanHidden,
		Forgetting: forgetting,
		Ridge:      1e-2,
		Precision:  modelPrecision,
	}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	if err := m.InitSequential(trainX, trainY); err != nil {
		return nil, err
	}
	return m, nil
}

// proposedNSL builds a calibrated proposed-method detector for NSL-KDD.
func proposedNSL(ds *nslkdd.Dataset, window int, seed uint64) (*core.Detector, error) {
	m, err := model.New(model.Config{
		Classes:   2,
		Inputs:    nslkdd.Features,
		Hidden:    nslHidden,
		Ridge:     1e-2,
		Precision: modelPrecision,
	}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	thetaErr, err := trainPrequential(m, ds.TrainX, ds.TrainY)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(window)
	cfg.Precision = modelPrecision
	cfg.NRecon = proposedNReconNSL
	cfg.NSearch = 30
	cfg.NUpdate = 500
	cfg.ErrorThreshold = thetaErr
	det, err := core.New(m, cfg)
	if err != nil {
		return nil, err
	}
	if err := det.Calibrate(ds.TrainX, ds.TrainY); err != nil {
		return nil, err
	}
	return det, nil
}

// proposedFan builds a calibrated proposed-method detector for the
// cooling-fan stream.
func proposedFan(trainX [][]float64, trainY []int, window int, seed uint64) (*core.Detector, error) {
	m, err := model.New(model.Config{
		Classes:   1,
		Inputs:    coolingfan.Features,
		Hidden:    fanHidden,
		Ridge:     1e-2,
		Precision: modelPrecision,
	}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	thetaErr, err := trainPrequential(m, trainX, trainY)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(window)
	cfg.Precision = modelPrecision
	cfg.NRecon = proposedNReconFan
	cfg.NUpdate = 50
	cfg.ErrorThreshold = thetaErr
	det, err := core.New(m, cfg)
	if err != nil {
		return nil, err
	}
	if err := det.Calibrate(trainX, trainY); err != nil {
		return nil, err
	}
	return det, nil
}

// runAllNSL evaluates the five §4.2 method combinations on the NSL-KDD
// surrogate, using the given window for the proposed method. The five
// runs are independent — each owns its model and RNG streams and only
// reads the shared dataset — so they execute concurrently.
func runAllNSL(seed uint64, window int) ([]*RunResult, error) {
	ds := nslkdd.Generate(nslkdd.DefaultParams())
	cfg := RunConfig{DriftAt: ds.DriftAt}
	return RunSet(
		MethodRun{Name: "Quant Tree", Run: func() (*RunResult, error) {
			m, err := nslModel(ds, 1, seed)
			if err != nil {
				return nil, err
			}
			qt, err := quanttree.New(ds.TrainX, quanttree.Config{Bins: nslQTBins, BatchSize: nslQTBatch, CalibrationTrials: 800}, rng.New(seed+10))
			if err != nil {
				return nil, err
			}
			return RunBatch("Quant Tree", m, qt, ds.TestX, ds.TestY, cfg, rng.New(seed+11)), nil
		}},
		MethodRun{Name: "SPLL", Run: func() (*RunResult, error) {
			m, err := nslModel(ds, 1, seed)
			if err != nil {
				return nil, err
			}
			sp, err := spll.New(ds.TrainX, spll.Config{Clusters: 3, BatchSize: nslSPLLBatch, CalibrationTrials: 120}, rng.New(seed+12))
			if err != nil {
				return nil, err
			}
			return RunBatch("SPLL", m, sp, ds.TestX, ds.TestY, cfg, rng.New(seed+13)), nil
		}},
		MethodRun{Name: "Baseline", Run: func() (*RunResult, error) {
			m, err := nslModel(ds, 1, seed)
			if err != nil {
				return nil, err
			}
			return RunStatic(m, ds.TestX, ds.TestY, cfg), nil
		}},
		MethodRun{Name: "ONLAD", Run: func() (*RunResult, error) {
			m, err := nslModel(ds, nslONLADForget, seed)
			if err != nil {
				return nil, err
			}
			return RunONLAD(m, ds.TestX, ds.TestY, cfg), nil
		}},
		MethodRun{Name: "Proposed", Run: func() (*RunResult, error) {
			det, err := proposedNSL(ds, window, seed)
			if err != nil {
				return nil, err
			}
			return RunProposed(det, ds.TestX, ds.TestY, cfg), nil
		}},
	)
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

// Figure1 regenerates the four drift-type illustrations as 1-D streams:
// the y value is the data distribution's location over time.
func Figure1(seed uint64) *Outcome {
	pre := synth.NewGaussian([][]float64{{0}}, 0.3)
	post := synth.NewGaussian([][]float64{{4}}, 0.3)
	const n = 1000
	specs := []synth.Spec{
		{Kind: synth.Sudden, Start: 500},
		{Kind: synth.Gradual, Start: 350, End: 650},
		{Kind: synth.Incremental, Start: 350, End: 650},
		{Kind: synth.Reoccurring, Start: 400, End: 600},
	}
	fig := Figure{Name: "fig1", XLabel: "time", YLabel: "data distribution"}
	summary := &Table{
		Title:   "Figure 1: four concept drift types (1-D stream means by segment)",
		Columns: []string{"type", "mean[0:start]", "mean[transition]", "mean[end segment]"},
	}
	r := rng.New(seed)
	for _, spec := range specs {
		st, err := synth.Generate(pre, post, n, spec, r.Split())
		if err != nil {
			panic(err) // static specs; cannot fail
		}
		s := Series{Name: spec.Kind.String()}
		for i, x := range st.X {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, x[0])
		}
		fig.Series = append(fig.Series, s)
		end := spec.End
		if spec.Kind == synth.Sudden {
			end = spec.Start
		}
		summary.AddRow(spec.Kind.String(),
			meanRange(s.Y, 0, spec.Start),
			meanRange(s.Y, spec.Start, end),
			meanRange(s.Y, end, n))
	}
	return &Outcome{Tables: []*Table{summary}, Figures: []Figure{fig}}
}

func meanRange(ys []float64, lo, hi int) float64 {
	if hi <= lo {
		return 0
	}
	var s float64
	for _, v := range ys[lo:hi] {
		s += v
	}
	return s / float64(hi-lo)
}

// ---------------------------------------------------------------------------
// Figure 4 and Table 2
// ---------------------------------------------------------------------------

// Figure4 regenerates the accuracy-over-time curves of the five methods
// on the NSL-KDD surrogate (proposed method at W=100).
func Figure4(seed uint64) *Outcome {
	results, err := runAllNSL(seed, 100)
	if err != nil {
		panic(err)
	}
	fig := Figure{Name: "fig4", XLabel: "sample", YLabel: "accuracy (moving window)"}
	summary := &Table{
		Title:   "Figure 4 summary: windowed accuracy before/after the drift (drift at sample 8333)",
		Columns: []string{"method", "overall", "pre-drift", "post-drift"},
	}
	for _, res := range results {
		fig.Series = append(fig.Series, res.Trace)
		summary.AddRow(res.Name, pct(res.Accuracy), pct(res.PreDrift), pct(res.PostDrift))
	}
	return &Outcome{Tables: []*Table{summary}, Figures: []Figure{fig}}
}

// Table2 regenerates the accuracy/delay comparison, including the
// proposed method at the paper's three window sizes.
func Table2(seed uint64) *Outcome {
	t := &Table{
		Title:   "Table 2: accuracy (%) and delay for detecting concept drift on NSL-KDD",
		Columns: []string{"method", "accuracy (%)", "delay"},
	}
	results, err := runAllNSL(seed, 100)
	if err != nil {
		panic(err)
	}
	// Paper row order: Quant Tree, SPLL, Baseline, ONLAD, Proposed×3.
	for _, res := range results[:4] {
		t.AddRow(res.Name, pct(res.Accuracy), delayCell(res.Delay))
	}
	t.AddRow(results[4].Name, pct(results[4].Accuracy), delayCell(results[4].Delay))
	if h := results[4].Health; h != nil {
		t.Notes = append(t.Notes, h.String())
	}
	ds := nslkdd.Generate(nslkdd.DefaultParams())
	windows := []int{250, 1000}
	runs := make([]MethodRun, len(windows))
	for i, w := range windows {
		w := w
		runs[i] = MethodRun{Name: fmt.Sprintf("proposed W=%d", w), Run: func() (*RunResult, error) {
			det, err := proposedNSL(ds, w, seed)
			if err != nil {
				return nil, err
			}
			return RunProposed(det, ds.TestX, ds.TestY, RunConfig{DriftAt: ds.DriftAt}), nil
		}}
	}
	extra, err2 := RunSet(runs...)
	if err2 != nil {
		panic(err2)
	}
	for _, res := range extra {
		t.AddRow(res.Name, pct(res.Accuracy), delayCell(res.Delay))
	}
	return &Outcome{Tables: []*Table{t}}
}

func pct(v float64) float64 { return 100 * v }

func delayCell(d int) string {
	if d < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", d)
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

// Table3 regenerates the window-size vs detection-delay analysis on the
// three cooling-fan drift types.
func Table3(seed uint64) *Outcome {
	t := &Table{
		Title:   "Table 3: delay for detecting concept drift with different window sizes on cooling fan",
		Columns: []string{"window", "sudden", "gradual", "reoccurring"},
	}
	gen := coolingfan.NewGenerator(fanParams(seed))
	trainX, trainY := gen.TrainingSet(fanTrainN)
	streams := []*coolingfan.Stream{gen.TestSudden(), gen.TestGradual(), gen.TestReoccurring()}
	windows := []int{10, 50, 150}
	cells := make([][]string, len(windows))
	pool := workpool.New(0)
	for wi, w := range windows {
		cells[wi] = make([]string, len(streams))
		for si, st := range streams {
			wi, si, w, st := wi, si, w, st
			pool.Go(func() error {
				det, err := proposedFan(trainX, trainY, w, seed)
				if err != nil {
					return fmt.Errorf("W=%d stream %d: %w", w, si, err)
				}
				res := RunProposed(det, st.X, nil, RunConfig{DriftAt: st.DriftAt})
				cells[wi][si] = delayCell(res.Delay)
				return nil
			})
		}
	}
	if err := pool.Wait(); err != nil {
		panic(err)
	}
	for wi, w := range windows {
		row := []interface{}{fmt.Sprintf("W=%d", w)}
		for _, c := range cells[wi] {
			row = append(row, c)
		}
		t.AddRow(row...)
	}
	return &Outcome{Tables: []*Table{t}}
}

func fanParams(seed uint64) coolingfan.Params {
	p := coolingfan.DefaultParams()
	p.Seed = seed
	return p
}

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

// Table4 regenerates the memory-utilisation comparison in the
// cooling-fan configuration (D=511, ν=235). Reported bytes are the
// detector-specific state — the discriminative model is common to every
// method and is listed separately for context.
func Table4(seed uint64) *Outcome {
	gen := coolingfan.NewGenerator(fanParams(seed))
	trainX, trainY := gen.TrainingSet(fanTrainN)

	qt, err := quanttree.New(trainX, quanttree.Config{Bins: fanQTBins, BatchSize: fanQTBatch, CalibrationTrials: 400}, rng.New(seed+1))
	if err != nil {
		panic(err)
	}
	sp, err := spll.New(trainX, spll.Config{Clusters: 3, BatchSize: fanSPLLBatch, CalibrationTrials: 30}, rng.New(seed+2))
	if err != nil {
		panic(err)
	}
	det, err := proposedFan(trainX, trainY, 50, seed)
	if err != nil {
		panic(err)
	}

	pico := device.PiPico()
	t := &Table{
		Title:   "Table 4: memory utilization (kB), cooling-fan configuration (D=511)",
		Columns: []string{"method", "detector memory (kB)", "fits Raspberry Pi Pico (264 kB)"},
		Notes: []string{
			fmt.Sprintf("shared OS-ELM discriminative model: %.1f kB (all methods)", device.KB(det.Model().MemoryBytes())),
			"detector memory excludes the shared model; batch methods buffer ν×D float64 samples",
		},
	}
	detBytes := det.MemoryBytes() - det.Model().MemoryBytes()
	t.AddRow("Quant Tree", device.KB(qt.MemoryBytes()), fits(pico, qt.MemoryBytes()))
	t.AddRow("SPLL", device.KB(sp.MemoryBytes()), fits(pico, sp.MemoryBytes()))
	t.AddRow("Proposed method", device.KB(detBytes), fits(pico, detBytes))
	return &Outcome{Tables: []*Table{t}}
}

func fits(p device.Profile, bytes int) string {
	if p.FitsIn(bytes, 0) {
		return "yes"
	}
	return "no"
}

// ---------------------------------------------------------------------------
// Table 5
// ---------------------------------------------------------------------------

// Table5 regenerates the 700-sample execution-time comparison. Times are
// modelled Raspberry Pi 4 seconds derived from counted operations; the
// measured host wall-clock time is shown alongside.
func Table5(seed uint64) *Outcome {
	gen := coolingfan.NewGenerator(fanParams(seed))
	trainX, trainY := gen.TrainingSet(fanTrainN)
	stream := gen.TestSudden()
	cfg := RunConfig{DriftAt: stream.DriftAt}
	pi4 := device.Pi4()

	var rows []*RunResult

	mQT, err := fanModel(trainX, trainY, 1, seed)
	if err != nil {
		panic(err)
	}
	qt, err := quanttree.New(trainX, quanttree.Config{Bins: fanQTBins, BatchSize: fanQTBatch, CalibrationTrials: 400}, rng.New(seed+1))
	if err != nil {
		panic(err)
	}
	rows = append(rows, RunBatch("Quant Tree", mQT, qt, stream.X, nil, cfg, rng.New(seed+2)))

	mSP, err := fanModel(trainX, trainY, 1, seed)
	if err != nil {
		panic(err)
	}
	sp, err := spll.New(trainX, spll.Config{Clusters: 3, BatchSize: fanSPLLBatch, CalibrationTrials: 30}, rng.New(seed+3))
	if err != nil {
		panic(err)
	}
	rows = append(rows, RunBatch("SPLL", mSP, sp, stream.X, nil, cfg, rng.New(seed+4)))

	mBase, err := fanModel(trainX, trainY, 1, seed)
	if err != nil {
		panic(err)
	}
	rows = append(rows, RunStatic(mBase, stream.X, nil, cfg))

	det, err := proposedFan(trainX, trainY, 50, seed)
	if err != nil {
		panic(err)
	}
	rows = append(rows, RunProposed(det, stream.X, nil, cfg))

	t := &Table{
		Title:   "Table 5: execution time (sec) for 700 samples, Raspberry Pi 4 model",
		Columns: []string{"method", "modelled Pi4 time (s)", "host wall time (ms)"},
	}
	for _, res := range rows {
		t.AddRow(res.Name, pi4.Seconds(res.Ops), float64(res.HostTime.Microseconds())/1000)
	}
	return &Outcome{Tables: []*Table{t}}
}

// ---------------------------------------------------------------------------
// Table 6
// ---------------------------------------------------------------------------

// Table6 regenerates the per-sample execution-time breakdown of the
// proposed method on the Raspberry Pi Pico model: the fan stream is run
// end to end (including a drift and reconstruction) and each
// instrumented stage's mean per-invocation cost is converted to Pico
// milliseconds.
func Table6(seed uint64) *Outcome {
	gen := coolingfan.NewGenerator(fanParams(seed))
	trainX, trainY := gen.TrainingSet(fanTrainN)
	stream := gen.TestSudden()
	det, err := proposedFan(trainX, trainY, 50, seed)
	if err != nil {
		panic(err)
	}
	RunProposed(det, stream.X, nil, RunConfig{DriftAt: stream.DriftAt})

	pico := device.PiPico()
	t := &Table{
		Title:   "Table 6: execution time breakdown (msec) for 1 sample, Raspberry Pi Pico model",
		Columns: []string{"stage", "time (ms)", "invocations"},
		Notes: []string{
			"per-invocation means over the 700-sample sudden-drift run (one reconstruction)",
		},
	}
	stages := core.Stages()
	// Keep Table 6 row order: prediction, distance, retrain −/+, init,
	// update.
	order := []core.Stage{
		core.StageLabelPrediction,
		core.StageDistance,
		core.StageRetrainNoPred,
		core.StageRetrainWithPred,
		core.StageCoordInit,
		core.StageCoordUpdate,
	}
	sort.SliceStable(stages, func(i, j int) bool {
		return indexOfStage(order, stages[i]) < indexOfStage(order, stages[j])
	})
	for _, s := range stages {
		ops, n := det.StageOps(s)
		if n == 0 {
			t.AddRow(s.String(), "-", 0)
			continue
		}
		perCall := pico.Millis(ops) / float64(n)
		t.AddRow(s.String(), perCall, n)
	}
	return &Outcome{Tables: []*Table{t}}
}

func indexOfStage(order []core.Stage, s core.Stage) int {
	for i, o := range order {
		if o == s {
			return i
		}
	}
	return len(order)
}

// Figure3 reproduces the paper's algorithm illustration computationally:
// three labelled 2-D clusters are learned (trained centroids), a stream
// of test samples updates the recent centroids, and after a drift moves
// one cluster the corresponding recent centroid trails away from its
// trained twin — the geometric event Algorithm 1 thresholds on.
func Figure3(seed uint64) *Outcome {
	means := [][]float64{{0, 0}, {6, 0}, {3, 5}}
	pre := synth.NewGaussian(means, 0.4)
	// Drift: the "blue" cluster (index 0) moves to a new location.
	post := &synth.Gaussian{Means: [][]float64{{2.5, -3}, {6, 0}, {3, 5}}, Std: 0.4}
	r := rng.New(seed)
	trainX, trainY := synth.TrainingSet(pre, 300, r)

	m, err := model.New(model.Config{Classes: 3, Inputs: 2, Hidden: 8, Ridge: 1e-2, Precision: modelPrecision}, rng.New(seed))
	if err != nil {
		panic(err)
	}
	thetaErr, err := trainPrequential(m, trainX, trainY)
	if err != nil {
		panic(err)
	}
	cfg := core.DefaultConfig(60)
	cfg.Precision = modelPrecision
	cfg.ErrorThreshold = thetaErr
	det, err := core.New(m, cfg)
	if err != nil {
		panic(err)
	}
	if err := det.Calibrate(trainX, trainY); err != nil {
		panic(err)
	}

	dist := func() float64 {
		var s float64
		for c := 0; c < 3; c++ {
			tc, rc := det.TrainedCentroid(c), det.RecentCentroid(c)
			for j := range tc {
				d := tc[j] - rc[j]
				if d < 0 {
					d = -d
				}
				s += d
			}
		}
		return s
	}

	t := &Table{
		Title:   "Figure 3: trained vs recent centroids before and after a drift (Σ L1 distance)",
		Columns: []string{"stage", "Σ|recent − trained|", "θ_drift"},
	}
	t.AddRow("after calibration", dist(), det.ThetaDrift())

	// Phase (c): stable test data — recent centroids stay put.
	st1, err := synth.Generate(pre, pre, 400, synth.Spec{Kind: synth.Sudden, Start: 399}, r)
	if err != nil {
		panic(err)
	}
	for _, x := range st1.X {
		det.Process(x)
	}
	t.AddRow("after 400 stable samples (Fig. 3c)", dist(), det.ThetaDrift())

	// Phase (d): the blue cluster moves; its recent centroid follows.
	fig := Figure{Name: "fig3", XLabel: "sample", YLabel: "Σ|recent − trained| (L1)"}
	trail := Series{Name: "centroid distance"}
	thr := Series{Name: "θ_drift"}
	detectedAt := -1
	for i := 0; i < 1200; i++ {
		x, _ := post.Sample(r)
		res := det.Process(x)
		if res.DriftDetected && detectedAt < 0 {
			detectedAt = i
		}
		if i%10 == 0 {
			trail.X = append(trail.X, float64(i))
			trail.Y = append(trail.Y, dist())
			thr.X = append(thr.X, float64(i))
			thr.Y = append(thr.Y, det.ThetaDrift())
		}
		if detectedAt >= 0 {
			break
		}
	}
	fig.Series = append(fig.Series, trail, thr)
	t.AddRow("at drift detection (Fig. 3d)", dist(), det.ThetaDrift())
	t.AddRow("samples of drifted data until detection", detectedAt, "")
	return &Outcome{Tables: []*Table{t}, Figures: []Figure{fig}}
}
