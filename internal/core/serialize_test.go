package core

import (
	"bytes"
	"errors"
	"testing"

	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	d, r := newCalibrated(t, 60, DefaultConfig(40))
	// Advance it a little so recent centroids differ from trained ones.
	for i := 0; i < 120; i++ {
		d.Process(sample(r, i%testClasses, 0))
	}
	var modelBuf, stateBuf bytes.Buffer
	if _, err := d.Model().Save(&modelBuf, oselm.Float64); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveState(&stateBuf); err != nil {
		t.Fatal(err)
	}
	m2, err := model.Load(&modelBuf)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := LoadState(&stateBuf, m2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.ThetaError() != d.ThetaError() || d2.ThetaDrift() != d.ThetaDrift() {
		t.Fatalf("thresholds differ: (%v,%v) vs (%v,%v)",
			d2.ThetaError(), d2.ThetaDrift(), d.ThetaError(), d.ThetaDrift())
	}
	for c := 0; c < testClasses; c++ {
		a, b := d.TrainedCentroid(c), d2.TrainedCentroid(c)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("trained centroid %d differs", c)
			}
		}
		ra, rb := d.RecentCentroid(c), d2.RecentCentroid(c)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("recent centroid %d differs", c)
			}
		}
	}
	if d2.Config().Window != 40 {
		t.Fatalf("window %d", d2.Config().Window)
	}
	// Loaded detector keeps detecting: drive a drift through it.
	detected := false
	for i := 0; i < 3000 && !detected; i++ {
		detected = d2.Process(sample(r, i%testClasses, 5)).DriftDetected
	}
	if !detected {
		t.Fatal("loaded detector never detected a drift")
	}
}

func TestSaveStateRejectsUncalibratedAndMidReconstruction(t *testing.T) {
	m, _ := model.New(model.Config{Classes: 2, Inputs: testDims, Hidden: 4}, rng.New(61))
	d, err := New(m, DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveState(&bytes.Buffer{}); err == nil {
		t.Fatal("expected uncalibrated error")
	}
	dc, r := newCalibrated(t, 62, DefaultConfig(10))
	dc.Process(sample(r, 0, 0))
	dc.TriggerReconstruction()
	if err := dc.SaveState(&bytes.Buffer{}); err == nil {
		t.Fatal("expected mid-reconstruction error")
	}
}

func TestLoadStateRejectsMismatchedModel(t *testing.T) {
	d, _ := newCalibrated(t, 63, DefaultConfig(10))
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	wrong, _ := model.New(model.Config{Classes: 3, Inputs: testDims, Hidden: 4}, rng.New(64))
	if _, err := LoadState(bytes.NewReader(buf.Bytes()), wrong); err == nil {
		t.Fatal("expected class-count mismatch error")
	}
	wrongDims, _ := model.New(model.Config{Classes: 2, Inputs: 9, Hidden: 4}, rng.New(65))
	if _, err := LoadState(bytes.NewReader(buf.Bytes()), wrongDims); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestLoadStateRejectsGarbage(t *testing.T) {
	m, _ := model.New(model.Config{Classes: 2, Inputs: testDims, Hidden: 4}, rng.New(66))
	if _, err := LoadState(bytes.NewReader([]byte("junkjunkjunk")), m); err == nil {
		t.Fatal("expected format error")
	}
	// The legacy EDDET1/EDDET2 layouts no longer load.
	full, sm := savedState(t)
	for _, ver := range []byte("12") {
		legacy := append([]byte(nil), full...)
		legacy[5] = ver
		if _, err := LoadState(bytes.NewReader(legacy), sm); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("EDDET%c artifact: err = %v, want ErrBadFormat", ver, err)
		}
	}
}
