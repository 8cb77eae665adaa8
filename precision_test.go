package edgedrift_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"edgedrift"
)

// precisionMonitor builds a fitted monitor on the shared fleet fixture
// at the requested numeric backend.
func precisionMonitor(t *testing.T, fx *fleetFixture, p edgedrift.Precision) *edgedrift.Monitor {
	t.Helper()
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: 2, Inputs: 3, Hidden: 8, Window: 50, NRecon: 300, Seed: 1,
		Precision: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(fx.trainX, fx.trainY); err != nil {
		t.Fatal(err)
	}
	return mon
}

// TestFloat32MonitorDeterministic pins that the float32 backend is as
// reproducible as float64: two monitors built from the same seed emit
// bit-identical result streams.
func TestFloat32MonitorDeterministic(t *testing.T) {
	fx := newFleetFixture(t)
	a := precisionMonitor(t, fx, edgedrift.Float32)
	b := precisionMonitor(t, fx, edgedrift.Float32)
	for i, x := range fx.stream {
		ra, rb := a.Process(x), b.Process(x)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("sample %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
}

// TestFloat32TracksFloat64Stream bounds the backend gap end to end: the
// float32 monitor's scores stay within single-precision rounding of the
// float64 monitor's over the full drift stream, and both reach the same
// drift verdict.
func TestFloat32TracksFloat64Stream(t *testing.T) {
	fx := newFleetFixture(t)
	m64 := precisionMonitor(t, fx, edgedrift.Float64)
	m32 := precisionMonitor(t, fx, edgedrift.Float32)
	worst := 0.0
	for _, x := range fx.stream {
		r64, r32 := m64.Process(x), m32.Process(x)
		if d := math.Abs(r64.Score - r32.Score); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Fatalf("f32 scores drifted %g from f64, want <= 1e-3", worst)
	}
	if len(m64.DriftEvents()) == 0 || len(m32.DriftEvents()) == 0 {
		t.Fatalf("drift verdicts differ: f64 %v, f32 %v", m64.DriftEvents(), m32.DriftEvents())
	}
}

// TestFloat32MonitorRoundTrip fits at float32, ships the v3 artifact,
// and checks the loaded monitor reports the backend and continues the
// stream bit-identically to the original.
func TestFloat32MonitorRoundTrip(t *testing.T) {
	fx := newFleetFixture(t)
	orig := precisionMonitor(t, fx, edgedrift.Float32)
	for _, x := range fx.stream[:500] {
		orig.Process(x)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf, edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	loaded, err := edgedrift.LoadMonitor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Precision() != edgedrift.Float32 {
		t.Fatalf("loaded precision = %v, want Float32", loaded.Precision())
	}
	for i, x := range fx.stream[500:1500] {
		ro, rl := orig.Process(x), loaded.Process(x)
		if !reflect.DeepEqual(ro, rl) {
			t.Fatalf("sample %d diverged after round trip: %+v vs %+v", i, ro, rl)
		}
	}
}

// TestQuantizeQ16RequiresFit pins the quantisation precondition.
func TestQuantizeQ16RequiresFit(t *testing.T) {
	mon, err := edgedrift.New(edgedrift.Options{Classes: 2, Inputs: 3, Hidden: 8, Window: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.QuantizeQ16(); err == nil {
		t.Fatal("QuantizeQ16 succeeded on an unfitted monitor")
	}
}

// TestMixedPrecisionFleet hosts all three backends in one fleet — an
// f64 monitor, an f32 monitor, and a Q16.16 stage — and checks they
// process, meter and health-aggregate side by side.
func TestMixedPrecisionFleet(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})

	if err := f.Add("f64", precisionMonitor(t, fx, edgedrift.Float64)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("f32", precisionMonitor(t, fx, edgedrift.Float32)); err != nil {
		t.Fatal(err)
	}
	donor := precisionMonitor(t, fx, edgedrift.Float64)
	q16, err := donor.QuantizeQ16()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddStage("q16", q16); err != nil {
		t.Fatal(err)
	}

	for _, id := range f.IDs() {
		if _, err := f.ProcessBatch(id, fx.stream); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	n := len(fx.stream)
	for id, h := range f.MemberHealth() {
		if h.SamplesSeen != n {
			t.Errorf("%s: SamplesSeen = %d, want %d", id, h.SamplesSeen, n)
		}
	}
	agg := f.Health()
	if agg.SamplesSeen != 3*n {
		t.Fatalf("fleet SamplesSeen = %d, want %d", agg.SamplesSeen, 3*n)
	}
	if !agg.Healthy() {
		t.Fatalf("mixed fleet unhealthy: %s", agg.String())
	}
	// Every backend must see the sudden drift at sample 1000.
	for _, id := range []string{"f64", "f32", "q16"} {
		if _, drifts, err := f.MemberStats(id); err != nil || drifts == 0 {
			t.Errorf("%s: drifts = %d, err = %v; want a detection", id, drifts, err)
		}
	}
	if f.MemoryBytes() <= 0 {
		t.Fatal("fleet memory audit is non-positive")
	}
}

// TestMixedPrecisionFleetCheckpoint is the regression test for the
// mixed-precision save bug: Fleet.Save used to error on any AddStage
// (Q16.16) member. The fleet member-kind byte must round-trip a fleet
// hosting all three backends, and every member — q16 included — must
// continue bit-identically after the reload.
func TestMixedPrecisionFleetCheckpoint(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := f.Add("f64", precisionMonitor(t, fx, edgedrift.Float64)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("f32", precisionMonitor(t, fx, edgedrift.Float32)); err != nil {
		t.Fatal(err)
	}
	donor := precisionMonitor(t, fx, edgedrift.Float64)
	q16, err := donor.QuantizeQ16()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddStage("q16", q16); err != nil {
		t.Fatal(err)
	}
	// Drive all members partway so the checkpoint carries live state.
	mid := fx.stream[:700]
	rest := fx.stream[700:1700]
	for _, id := range f.IDs() {
		if _, err := f.ProcessBatch(id, mid); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}

	var buf bytes.Buffer
	if err := f.Save(&buf, edgedrift.Float64); err != nil {
		t.Fatalf("mixed-precision Save failed: %v", err)
	}
	g, err := edgedrift.LoadFleet(bytes.NewReader(buf.Bytes()), edgedrift.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.IDs(), f.IDs()) {
		t.Fatalf("IDs after load: %v", g.IDs())
	}
	// Bit-identical continuation, every backend: the original fleet and
	// the reloaded one must agree result-for-result on the rest of the
	// stream. (The f32 member was saved at Float64, which is lossless
	// for float32 state.)
	for _, id := range g.IDs() {
		want, err := f.ProcessBatch(id, rest)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.ProcessBatch(id, rest)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reloaded member diverged from the original", id)
		}
	}
}

// TestExportImportQ16Member migrates a Q16.16 member between two fleets
// through the public Export/ImportMember pair — the prerequisite the
// distributed tier relies on to move q16 streams between shards.
func TestExportImportQ16Member(t *testing.T) {
	fx := newFleetFixture(t)
	donor := precisionMonitor(t, fx, edgedrift.Float64)
	q16, err := donor.QuantizeQ16()
	if err != nil {
		t.Fatal(err)
	}
	src := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := src.AddStage("q", q16); err != nil {
		t.Fatal(err)
	}
	// Reference stage, never migrated, fed the identical stream.
	refDonor := precisionMonitor(t, fx, edgedrift.Float64)
	refStage, err := refDonor.QuantizeQ16()
	if err != nil {
		t.Fatal(err)
	}
	ref := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := ref.AddStage("q", refStage); err != nil {
		t.Fatal(err)
	}

	pre, post := fx.stream[:800], fx.stream[800:2000]
	if _, err := src.ProcessBatch("q", pre); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ProcessBatch("q", pre); err != nil {
		t.Fatal(err)
	}

	st, err := src.ExportMember("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != 1 || st.Samples != uint64(len(pre)) {
		t.Fatalf("export state kind=%d samples=%d, want kind 1, %d samples", st.Kind, st.Samples, len(pre))
	}
	if src.Len() != 0 {
		t.Fatalf("source Len = %d after export", src.Len())
	}
	dst := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := dst.ImportMember(st); err != nil {
		t.Fatal(err)
	}

	got, err := dst.ProcessBatch("q", post)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ProcessBatch("q", post)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("migrated q16 member diverged from the unmigrated reference")
	}
	s, d, err := dst.MemberStats("q")
	if err != nil {
		t.Fatal(err)
	}
	rs, rd, err := ref.MemberStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if s != rs || d != rd {
		t.Fatalf("migrated counters %d/%d, reference %d/%d", s, d, rs, rd)
	}
}
