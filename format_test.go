package edgedrift_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"edgedrift"
	"edgedrift/internal/core"
	"edgedrift/internal/fixed"
	"edgedrift/internal/model"
	"edgedrift/internal/pool"
	"edgedrift/internal/rng"
)

// The artifact-format pins: FNV-64a of each checkpoint format's bytes
// for a fixed, deterministic state. A saved artifact is what ships to a
// device or migrates between shards, so its layout is a contract; any
// change to the bytes — field order, widths, footers — changes a hash.
const (
	pinMonitorF64 = "362b56cb322d4a80"
	pinMonitorF32 = "c21173cb81adfab0"
	pinQFIX01     = "537bc074adf85dc4"
	pinPOOL1      = "8d1fd33b25c1cd25"
	pinFLEET4     = "04686992ef47ebfa"
	pinEDMS1      = "7bbd323e793d8c45"
)

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinPool builds a model pool holding one checkpoint: a small calibrated
// detector driven through one drift.
func pinPool(t *testing.T) *pool.Stage {
	r := rng.New(11)
	draw := func(c int, shift float64) []float64 {
		return []float64{r.Normal(float64(c)*5+shift, 0.3), r.Normal(float64(c)*5+shift, 0.3)}
	}
	var xs [][]float64
	var labels []int
	for i := 0; i < 400; i++ {
		labels = append(labels, i%2)
		xs = append(xs, draw(i%2, 0))
	}
	must := func(err error) {
		if err != nil {
			t.Helper()
			t.Fatal(err)
		}
	}
	m, err := model.New(model.Config{Classes: 2, Inputs: 2, Hidden: 8, Ridge: 1e-2}, rng.New(10))
	must(err)
	must(m.InitSequential(xs, labels))
	cfg := core.DefaultConfig(40)
	cfg.NRecon, cfg.NUpdate = 400, 100
	d, err := core.New(m, cfg)
	must(err)
	must(d.Calibrate(xs, labels))
	p, err := pool.NewStage(d, pool.Config{})
	must(err)
	for i := 0; p.Len() == 0; i++ {
		if i == 5000 {
			t.Fatal("pool never checkpointed")
		}
		p.Process(draw(i%2, 3))
	}
	return p
}

// TestArtifactFormatPins hashes one artifact of every checksummed
// format (and the footer-less EDMS1 merge blob) and compares it with the
// pinned value.
func TestArtifactFormatPins(t *testing.T) {
	fx := newFleetFixture(t)
	mon := fx.monitor(t, 1)
	for _, x := range fx.stream[:400] {
		mon.Process(x)
	}
	save := func(fn func(*bytes.Buffer) error) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	q, err := mon.QuantizeQ16()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range fx.stream[400:500] {
		q.Process(x)
	}
	fl := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for i, id := range []string{"f32", "plain", "q16"} {
		if err := fl.Add(id, fx.monitor(t, uint64(60+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := fl.ProcessBatch(id, fx.stream[:300]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.DemoteMember("f32", edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	if err := fl.DemoteMember("q16", edgedrift.Fixed16); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"f32", "q16"} {
		if _, err := fl.ProcessBatch(id, fx.stream[300:400]); err != nil {
			t.Fatal(err)
		}
	}
	merge, err := mon.ExportMergeState()
	if err != nil {
		t.Fatal(err)
	}
	p := pinPool(t)

	for _, c := range []struct {
		name string
		art  []byte
		want string
	}{
		{"monitor/f64", save(func(b *bytes.Buffer) error { return mon.Save(b, edgedrift.Float64) }), pinMonitorF64},
		{"monitor/f32", save(func(b *bytes.Buffer) error { return mon.Save(b, edgedrift.Float32) }), pinMonitorF32},
		{"QFIX01", save(func(b *bytes.Buffer) error { return q.(*fixed.Stream).Save(b) }), pinQFIX01},
		{"POOL1", save(func(b *bytes.Buffer) error { return p.Save(b) }), pinPOOL1},
		{"FLEET4", save(func(b *bytes.Buffer) error { return fl.Save(b, edgedrift.Float64) }), pinFLEET4},
		{"EDMS1", merge, pinEDMS1},
	} {
		if got := fnvHex(c.art); got != c.want {
			t.Errorf("%s: %d bytes hash to %s, pinned %s", c.name, len(c.art), got, c.want)
		}
	}
}
