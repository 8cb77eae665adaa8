package edgedrift

import (
	"testing"

	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/rng"
)

func scenario(seed uint64) (trainX [][]float64, trainY []int, stream *synth.Stream) {
	pre := synth.NewGaussian([][]float64{{0, 0, 0}, {5, 5, 5}}, 0.3)
	post := synth.ShiftedGaussian(pre, 4)
	r := rng.New(seed)
	trainX, trainY = synth.TrainingSet(pre, 300, r)
	stream, err := synth.Generate(pre, post, 2500, synth.Spec{Kind: synth.Sudden, Start: 800}, r)
	if err != nil {
		panic(err)
	}
	return trainX, trainY, stream
}

func newFit(t *testing.T, opts Options, seed uint64) (*Monitor, *synth.Stream) {
	t.Helper()
	trainX, trainY, stream := scenario(seed)
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	return mon, stream
}

func defaultOpts() Options {
	return Options{Classes: 2, Inputs: 3, Hidden: 8, Window: 50, Seed: 1, NRecon: 300}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Classes: 0, Inputs: 3, Hidden: 4, Window: 10}); err == nil {
		t.Fatal("expected model config error")
	}
	if _, err := New(Options{Classes: 2, Inputs: 3, Hidden: 4, Window: 0}); err == nil {
		t.Fatal("expected window error")
	}
}

func TestFitValidation(t *testing.T) {
	mon, err := New(defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(nil, nil); err == nil {
		t.Fatal("expected empty-fit error")
	}
	if err := mon.Fit([][]float64{{1, 2, 3}}, []int{9}); err == nil {
		t.Fatal("expected label range error")
	}
}

// TestFitRejectsBadLabelBeforeTraining puts the only bad label last: Fit
// must fail before any sample trains, so a retry with the right labels
// behaves exactly like a fresh monitor.
func TestFitRejectsBadLabelBeforeTraining(t *testing.T) {
	trainX, trainY, stream := scenario(4)
	bad := append([]int(nil), trainY...)
	bad[len(bad)-1] = 7
	retried, err := New(defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := retried.Fit(trainX, bad); err == nil {
		t.Fatal("expected label range error")
	}
	if err := retried.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	fresh, _ := newFit(t, defaultOpts(), 4)
	for i, x := range stream.X {
		if got, want := retried.Process(x), fresh.Process(x); got != want {
			t.Fatalf("sample %d: retried monitor %+v, fresh %+v", i, got, want)
		}
	}
}

// TestFitRejectsWrongDimension: a training sample of the wrong length is
// an error, not a panic inside the model.
func TestFitRejectsWrongDimension(t *testing.T) {
	mon, err := New(defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit([][]float64{{1, 2, 3}, {1, 2}}, []int{0, 1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestProcessPanicsBeforeFit(t *testing.T) {
	mon, _ := New(defaultOpts())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mon.Process([]float64{1, 2, 3})
}

func TestEndToEndDriftDetection(t *testing.T) {
	mon, stream := newFit(t, defaultOpts(), 2)
	thErr, thDrift := mon.Thresholds()
	if thErr <= 0 || thDrift <= 0 {
		t.Fatalf("thresholds %v/%v", thErr, thDrift)
	}
	for i, x := range stream.X {
		r := mon.Process(x)
		if i < 800 && r.DriftDetected {
			t.Fatalf("false positive at %d", i)
		}
	}
	ev := mon.DriftEvents()
	if len(ev) == 0 {
		t.Fatal("drift never detected")
	}
	if ev[0] < 800 || ev[0] > 1800 {
		t.Fatalf("detection at %d", ev[0])
	}
	if mon.Reconstructions() < 1 {
		t.Fatal("no reconstruction completed")
	}
	if mon.PhaseNow() == Reconstructing {
		t.Fatal("stuck in reconstruction")
	}
}

func TestFitUnsupervisedMatchesSupervisedBehaviour(t *testing.T) {
	trainX, _, stream := scenario(3)
	mon, err := New(defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	labels, err := mon.FitUnsupervised(trainX)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(trainX) {
		t.Fatalf("labels %d", len(labels))
	}
	detected := false
	for _, x := range stream.X {
		if mon.Process(x).DriftDetected {
			detected = true
		}
	}
	if !detected {
		t.Fatal("unsupervised monitor missed the drift")
	}
}

func TestPredictDoesNotAdvanceDetector(t *testing.T) {
	mon, stream := newFit(t, defaultOpts(), 4)
	before := mon.Detector().SamplesSeen()
	mon.Predict(stream.X[0])
	if mon.Detector().SamplesSeen() != before {
		t.Fatal("Predict advanced the detector")
	}
}

func TestMemoryAndOps(t *testing.T) {
	mon, stream := newFit(t, defaultOpts(), 5)
	if mon.MemoryBytes() <= 0 {
		t.Fatal("memory audit")
	}
	var ops OpCounter
	mon.SetOps(&ops)
	mon.Process(stream.X[0])
	if ops.Total() == 0 {
		t.Fatal("ops not counted")
	}
}

func TestTrainDuringMonitor(t *testing.T) {
	opts := defaultOpts()
	opts.TrainDuringMonitor = true
	mon, stream := newFit(t, opts, 6)
	seen := mon.Model().Instance(0).SamplesSeen() + mon.Model().Instance(1).SamplesSeen()
	for i := 0; i < 100; i++ {
		mon.Process(stream.X[i])
	}
	after := mon.Model().Instance(0).SamplesSeen() + mon.Model().Instance(1).SamplesSeen()
	if after <= seen {
		t.Fatal("TrainDuringMonitor did not train")
	}
}

func TestManualThresholdsRespected(t *testing.T) {
	opts := defaultOpts()
	opts.ErrorThreshold = 123
	opts.DriftThreshold = 456
	trainX, trainY, _ := scenario(7)
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	te, td := mon.Thresholds()
	if te != 123 || td != 456 {
		t.Fatalf("thresholds %v/%v, want pinned values", te, td)
	}
}
