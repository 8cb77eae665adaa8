package eval

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"edgedrift/internal/core"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/detectors/quanttree"
	"edgedrift/internal/model"
	"edgedrift/internal/rng"
)

// driftScenario builds a 4-D two-class stream with a sudden drift, a
// trained model factory and calibration data.
type driftScenario struct {
	trainX  [][]float64
	trainY  []int
	streamX [][]float64
	streamY []int
	driftAt int
}

func newScenario(t *testing.T, seed uint64) *driftScenario {
	t.Helper()
	pre := synth.NewGaussian([][]float64{{0, 0, 0, 0}, {5, 5, 5, 5}}, 0.3)
	post := synth.ShiftedGaussian(pre, 4)
	r := rng.New(seed)
	trainX, trainY := synth.TrainingSet(pre, 400, r)
	st, err := synth.Generate(pre, post, 3000, synth.Spec{Kind: synth.Sudden, Start: 1000}, r)
	if err != nil {
		t.Fatal(err)
	}
	return &driftScenario{trainX: trainX, trainY: trainY, streamX: st.X, streamY: st.Labels, driftAt: 1000}
}

func (s *driftScenario) newModel(t *testing.T, seed uint64, forgetting float64) *model.Multi {
	t.Helper()
	m, err := model.New(model.Config{Classes: 2, Inputs: 4, Hidden: 8, Ridge: 1e-2, Forgetting: forgetting}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitSequential(s.trainX, s.trainY); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunStaticDegradesAfterDrift(t *testing.T) {
	sc := newScenario(t, 1)
	res := RunStatic(sc.newModel(t, 1, 1), sc.streamX, sc.streamY, RunConfig{DriftAt: sc.driftAt})
	if res.PreDrift < 0.95 {
		t.Fatalf("pre-drift accuracy %v", res.PreDrift)
	}
	if res.PostDrift >= res.PreDrift {
		t.Fatalf("static model should degrade: pre %v post %v", res.PreDrift, res.PostDrift)
	}
	if res.Delay != -1 || len(res.Detections) != 0 {
		t.Fatal("static runner must not detect anything")
	}
	if res.MemoryBytes <= 0 || res.Ops.Total() == 0 {
		t.Fatal("missing accounting")
	}
	if len(res.Trace.Y) == 0 {
		t.Fatal("missing trace")
	}
}

func TestRunProposedDetectsAndRecovers(t *testing.T) {
	sc := newScenario(t, 2)
	m := sc.newModel(t, 2, 1)
	cfg := core.DefaultConfig(50)
	cfg.NRecon = 300
	det, err := core.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Calibrate(sc.trainX, sc.trainY); err != nil {
		t.Fatal(err)
	}
	res := RunProposed(det, sc.streamX, sc.streamY, RunConfig{DriftAt: sc.driftAt})
	if res.Delay < 0 {
		t.Fatal("proposed method never detected the drift")
	}
	if res.Delay > 1000 {
		t.Fatalf("delay %d too long", res.Delay)
	}
	if res.Reconstructions < 1 {
		t.Fatal("no reconstruction")
	}
	static := RunStatic(sc.newModel(t, 2, 1), sc.streamX, sc.streamY, RunConfig{DriftAt: sc.driftAt})
	if res.PostDrift <= static.PostDrift {
		t.Fatalf("proposed post-drift %v not better than static %v", res.PostDrift, static.PostDrift)
	}
	if res.DetectorBytes <= 0 || res.DetectorBytes >= res.MemoryBytes {
		t.Fatalf("detector bytes %d of %d", res.DetectorBytes, res.MemoryBytes)
	}
}

func TestRunONLADTrainsEverySample(t *testing.T) {
	sc := newScenario(t, 3)
	m := sc.newModel(t, 3, 0.97)
	before := m.Instance(0).SamplesSeen() + m.Instance(1).SamplesSeen()
	res := RunONLAD(m, sc.streamX, sc.streamY, RunConfig{DriftAt: sc.driftAt})
	after := m.Instance(0).SamplesSeen() + m.Instance(1).SamplesSeen()
	if after-before != len(sc.streamX) {
		t.Fatalf("ONLAD trained %d of %d samples", after-before, len(sc.streamX))
	}
	if res.Name == "" || len(res.Trace.Y) == 0 {
		t.Fatal("result incomplete")
	}
}

func TestRunBatchDetectsAndAdapts(t *testing.T) {
	sc := newScenario(t, 4)
	m := sc.newModel(t, 4, 1)
	qt, err := quanttree.New(sc.trainX, quanttree.Config{Bins: 8, BatchSize: 100, CalibrationTrials: 300}, rng.New(40))
	if err != nil {
		t.Fatal(err)
	}
	res := RunBatch("qt", m, qt, sc.streamX, sc.streamY, RunConfig{DriftAt: sc.driftAt}, rng.New(41))
	if res.Delay < 0 {
		t.Fatal("batch method never detected")
	}
	// Detection lands on a batch boundary after the drift.
	if res.Delay >= 2*100 {
		t.Fatalf("batch delay %d exceeds two batches", res.Delay)
	}
	if res.Reconstructions < 1 {
		t.Fatal("no batch adaptation")
	}
	if res.PostDrift < 0.8 {
		t.Fatalf("batch adaptation failed: post-drift %v", res.PostDrift)
	}
	if res.DetectorBytes != qt.MemoryBytes() {
		t.Fatal("detector bytes should be the observer's")
	}
}

func TestComputeDelay(t *testing.T) {
	if computeDelay(nil, 100) != -1 {
		t.Fatal("no detections → -1")
	}
	if computeDelay([]int{50}, 100) != -1 {
		t.Fatal("pre-drift detection must not count")
	}
	if computeDelay([]int{50, 130, 200}, 100) != 30 {
		t.Fatal("first post-drift detection wins")
	}
	if computeDelay([]int{130}, -1) != -1 {
		t.Fatal("unknown drift point → -1")
	}
}

func TestRunConfigDefaults(t *testing.T) {
	c := RunConfig{}.withDefaults()
	if c.TraceWindow != 200 || c.TraceEvery != 50 || c.DriftAt != -1 {
		t.Fatalf("defaults: %+v", c)
	}
	c2 := RunConfig{DriftAt: 5}.withDefaults()
	if c2.DriftAt != 5 {
		t.Fatal("explicit DriftAt overridden")
	}
}

func TestUnlabelledStreams(t *testing.T) {
	sc := newScenario(t, 5)
	m := sc.newModel(t, 5, 1)
	res := RunStatic(m, sc.streamX, nil, RunConfig{DriftAt: sc.driftAt})
	if res.Accuracy != 0 || len(res.Trace.Y) != 0 {
		t.Fatal("unlabelled run must not fabricate accuracy")
	}
}

func TestRunSetOrderAndErrors(t *testing.T) {
	runs := make([]MethodRun, 6)
	for i := range runs {
		i := i
		runs[i] = MethodRun{
			Name: fmt.Sprintf("m%d", i),
			Run:  func() (*RunResult, error) { return &RunResult{Name: fmt.Sprintf("m%d", i)}, nil },
		}
	}
	out, err := RunSet(runs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if want := fmt.Sprintf("m%d", i); res.Name != want {
			t.Fatalf("slot %d holds %q, want %q", i, res.Name, want)
		}
	}

	runs[3].Run = func() (*RunResult, error) { return nil, errors.New("bad detector") }
	if _, err := RunSet(runs...); err == nil || !strings.Contains(err.Error(), "m3") {
		t.Fatalf("RunSet error = %v, want wrapped with run name m3", err)
	}
}
