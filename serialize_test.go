package edgedrift

import (
	"bytes"
	"errors"
	"testing"
)

func TestMonitorSaveLoadRoundTrip(t *testing.T) {
	mon, stream := newFit(t, defaultOpts(), 20)
	// Warm it up so detector state is non-trivial.
	for i := 0; i < 200; i++ {
		mon.Process(stream.X[i])
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf, Float64); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMonitor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	te1, td1 := mon.Thresholds()
	te2, td2 := got.Thresholds()
	if te1 != te2 || td1 != td2 {
		t.Fatalf("thresholds (%v,%v) vs (%v,%v)", te1, td1, te2, td2)
	}
	// Both monitors behave identically from here on.
	for i := 200; i < 2500; i++ {
		a := mon.Process(stream.X[i])
		b := got.Process(stream.X[i])
		if a.Label != b.Label || a.DriftDetected != b.DriftDetected || a.Phase != b.Phase {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a, b)
		}
	}
	if len(got.DriftEvents()) == 0 {
		t.Fatal("loaded monitor never detected the stream's drift")
	}
}

func TestMonitorSaveFloat32Smaller(t *testing.T) {
	mon, _ := newFit(t, defaultOpts(), 21)
	var b64, b32 bytes.Buffer
	if err := mon.Save(&b64, Float64); err != nil {
		t.Fatal(err)
	}
	if err := mon.Save(&b32, Float32); err != nil {
		t.Fatal(err)
	}
	if b32.Len() >= b64.Len() {
		t.Fatalf("float32 artifact %d not smaller than %d", b32.Len(), b64.Len())
	}
}

func TestMonitorSaveBeforeFitFails(t *testing.T) {
	mon, err := New(defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Save(&bytes.Buffer{}, Float64); err == nil {
		t.Fatal("expected error before Fit")
	}
}

func TestLoadMonitorRejectsGarbage(t *testing.T) {
	if _, err := LoadMonitor(bytes.NewReader([]byte("nope nope nope nope"))); err == nil {
		t.Fatal("expected format error")
	}
	// Legacy section magics no longer load: the model container
	// (MULTI1), its first instance (OSELM1/2, after the container's
	// magic, class count and the instance's metric word) and the
	// detector section (EDDET1/2, right after the model).
	mon, full := savedMonitor(t, 38)
	var mb bytes.Buffer
	if _, err := mon.model.Save(&mb, Float64); err != nil {
		t.Fatal(err)
	}
	const instanceMagic = 6 + 4 + 4
	for _, c := range []struct {
		at    int
		magic string
	}{
		{0, "MULTI1"},
		{instanceMagic, "OSELM1"}, {instanceMagic, "OSELM2"},
		{mb.Len(), "EDDET1"}, {mb.Len(), "EDDET2"},
	} {
		if got := string(full[c.at : c.at+5]); got != c.magic[:5] {
			t.Fatalf("offset %d holds %q, want the %s magic", c.at, got, c.magic[:5])
		}
		legacy := append([]byte(nil), full...)
		copy(legacy[c.at:], c.magic)
		if _, err := LoadMonitor(bytes.NewReader(legacy)); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s artifact: err = %v, want ErrBadFormat", c.magic, err)
		}
	}
}
