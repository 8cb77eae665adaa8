package edgedrift_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"edgedrift"
)

// TestFleetDemotePromoteRoundTrip is the fleet half of the transition
// contract: members demoted through the fleet serve samples at reduced
// precision, the roll-up counts them, traces stamp the transitions, and
// promotion resumes each stream bit-identically — the excursion samples
// advanced only the twins, so the post-promotion stream must equal a
// reference monitor that never saw them.
func TestFleetDemotePromoteRoundTrip(t *testing.T) {
	fx := newFleetFixture(t)
	head, mid, tail := fx.stream[:500], fx.stream[500:800], fx.stream[800:2000]

	// Per-stream references: head then tail, skipping the excursion.
	want := make(map[string][]edgedrift.Result)
	targets := map[string]edgedrift.Precision{"m0": edgedrift.Float32, "m1": edgedrift.Fixed16}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("m%d", i)
		ref := fx.monitor(t, uint64(10+i))
		for _, x := range head {
			ref.Process(x)
		}
		for _, x := range tail {
			want[id] = append(want[id], ref.Process(x))
		}
	}

	f := edgedrift.NewFleet(edgedrift.FleetConfig{Instrument: true})
	for i := 0; i < 2; i++ {
		if err := f.Add(fmt.Sprintf("m%d", i), fx.monitor(t, uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	for id := range targets {
		if _, err := f.ProcessBatch(id, head); err != nil {
			t.Fatal(err)
		}
	}
	for id, target := range targets {
		if err := f.DemoteMember(id, target); err != nil {
			t.Fatal(err)
		}
		degraded, active, capable, err := f.MemberPrecision(id)
		if err != nil || !capable || !degraded || active != target {
			t.Fatalf("MemberPrecision(%s) = %v %v %v %v after demote to %v", id, degraded, active, capable, err, target)
		}
	}

	// The excursion is served by the twins.
	for id := range targets {
		rs, err := f.ProcessBatch(id, mid)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(mid) {
			t.Fatalf("%s: excursion returned %d results", id, len(rs))
		}
	}

	m := f.Metrics()
	if m.Degraded != 2 || m.Demotions != 2 || m.Promotions != 0 {
		t.Fatalf("mid-excursion metrics: Degraded=%d Demotions=%d Promotions=%d", m.Degraded, m.Demotions, m.Promotions)
	}
	for id, target := range targets {
		sm, ok := m.PerStream[id]
		if !ok || !sm.Degraded || sm.ActivePrecision != target.String() {
			t.Fatalf("stream metrics for %s: %+v", id, sm)
		}
	}

	for id := range targets {
		if err := f.PromoteMember(id); err != nil {
			t.Fatal(err)
		}
	}
	m = f.Metrics()
	if m.Degraded != 0 || m.Promotions != 2 || m.TransitionFailures != 0 {
		t.Fatalf("post-promotion metrics: Degraded=%d Promotions=%d TransitionFailures=%d", m.Degraded, m.Promotions, m.TransitionFailures)
	}

	// Transitions were stamped into each member's trace ring.
	traces := f.Traces()
	for id, target := range targets {
		var sawDemote, sawPromote bool
		for _, ev := range traces[id] {
			switch ev.Kind {
			case "demote:" + target.String():
				sawDemote = true
			case "promote:f64":
				sawPromote = true
			}
		}
		if !sawDemote || !sawPromote {
			t.Fatalf("%s: trace missing transition stamps (demote=%v promote=%v): %+v", id, sawDemote, sawPromote, traces[id])
		}
	}

	// The origins resume bit-identically.
	for id := range targets {
		got, err := f.ProcessBatch(id, tail)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[id]) {
			t.Fatalf("%s: post-promotion stream diverges from the never-degraded reference", id)
		}
	}
}

// TestFleetTransitionFailures pins the failure accounting: unknown
// members, capability-free stages and invalid transitions all count,
// and none of them changes any member.
func TestFleetTransitionFailures(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := f.Add("m", fx.monitor(t, 3)); err != nil {
		t.Fatal(err)
	}
	q16, err := fx.monitor(t, 4).QuantizeQ16()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddStage("q", q16); err != nil {
		t.Fatal(err)
	}

	if err := f.DemoteMember("ghost", edgedrift.Float32); err == nil {
		t.Fatal("demoting an unknown member succeeded")
	}
	if err := f.DemoteMember("q", edgedrift.Float32); err == nil {
		t.Fatal("demoting a capability-free stage succeeded")
	}
	if _, _, capable, err := f.MemberPrecision("q"); err != nil || capable {
		t.Fatalf("MemberPrecision(q): capable=%v err=%v, want no capability", capable, err)
	}
	if err := f.PromoteMember("m"); err == nil {
		t.Fatal("promoting a non-demoted member succeeded")
	}
	if err := f.DemoteMember("m", edgedrift.Float64); err == nil {
		t.Fatal("demoting to f64 succeeded")
	}
	if got := f.Metrics().TransitionFailures; got != 4 {
		t.Fatalf("TransitionFailures = %d, want 4", got)
	}
	if degraded, active, _, _ := f.MemberPrecision("m"); degraded || active != edgedrift.Float64 {
		t.Fatalf("member mutated by failed transitions: degraded=%v active=%v", degraded, active)
	}
}

// TestFleetDegradedSaveLoad round-trips a degraded fleet through the
// FLEET4 container: demoted members reload demoted with their twins
// continuing bit-identically, the retained origins survive the trip, and
// promotion after the round trip is still bit-exact against a
// never-degraded reference. Then every byte of the artifact is flipped
// to prove corruption of the new degraded payloads cannot slip through.
func TestFleetDegradedSaveLoad(t *testing.T) {
	fx := newFleetFixture(t)
	head, mid, tail := fx.stream[:400], fx.stream[400:600], fx.stream[600:1800]

	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	ids := []string{"f32", "q16", "whole"}
	for i, id := range ids {
		if err := f.Add(id, fx.monitor(t, uint64(20+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ProcessBatch(id, head); err != nil {
			t.Fatal(err)
		}
	}
	// References: head then tail, no excursion (what promotion resumes).
	want := make(map[string][]edgedrift.Result)
	for i, id := range ids {
		ref := fx.monitor(t, uint64(20+i))
		for _, x := range head {
			ref.Process(x)
		}
		for _, x := range tail {
			want[id] = append(want[id], ref.Process(x))
		}
	}
	if err := f.DemoteMember("f32", edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	if err := f.DemoteMember("q16", edgedrift.Fixed16); err != nil {
		t.Fatal(err)
	}
	// Advance the twins so the saved degraded state is mid-excursion,
	// not freshly derived.
	for _, id := range []string{"f32", "q16"} {
		if _, err := f.ProcessBatch(id, mid[:100]); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := f.Save(&buf, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("FLEET4")) {
		t.Fatal("Save did not write a FLEET4 container")
	}

	g, err := edgedrift.LoadFleet(bytes.NewReader(buf.Bytes()), edgedrift.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for id, wantActive := range map[string]edgedrift.Precision{
		"f32": edgedrift.Float32, "q16": edgedrift.Fixed16, "whole": edgedrift.Float64,
	} {
		degraded, active, capable, err := g.MemberPrecision(id)
		if err != nil || !capable {
			t.Fatalf("loaded MemberPrecision(%s): capable=%v err=%v", id, capable, err)
		}
		if wantDegraded := id != "whole"; degraded != wantDegraded || active != wantActive {
			t.Fatalf("loaded %s: degraded=%v active=%v, want degraded=%v active=%v", id, degraded, active, wantDegraded, wantActive)
		}
	}
	if got := g.Metrics().Degraded; got != 2 {
		t.Fatalf("loaded fleet Degraded = %d, want 2", got)
	}

	// The loaded twins continue bit-identically to the originals.
	for _, id := range []string{"f32", "q16"} {
		wantRS, err := f.ProcessBatch(id, mid[100:])
		if err != nil {
			t.Fatal(err)
		}
		gotRS, err := g.ProcessBatch(id, mid[100:])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRS, wantRS) {
			t.Fatalf("%s: loaded twin diverges from the original twin", id)
		}
	}

	// Promotion after the round trip restores the retained origin: the
	// loaded fleet's stream must match the never-degraded reference.
	for _, id := range []string{"f32", "q16"} {
		if err := g.PromoteMember(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"f32", "q16"} {
		got, err := g.ProcessBatch(id, tail)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[id]) {
			t.Fatalf("%s: origin loaded from FLEET4 diverges after promotion", id)
		}
	}

	// Every single byte flip must be caught — the degraded payloads
	// (precision byte, retained origin, twin) included.
	art := buf.Bytes()
	for pos := 0; pos < len(art); pos++ {
		bad := append([]byte(nil), art...)
		bad[pos] ^= 0x40
		if _, err := edgedrift.LoadFleet(bytes.NewReader(bad), edgedrift.FleetConfig{}); !errors.Is(err, edgedrift.ErrBadFormat) {
			t.Fatalf("flip at byte %d/%d: err = %v, want ErrBadFormat", pos, len(art), err)
		}
	}
}

// TestFleetDegradedExportImport migrates a demoted member between
// fleets: the exported payload carries origin + twin, and the importing
// fleet resumes the twin bit-identically with the origin intact.
func TestFleetDegradedExportImport(t *testing.T) {
	fx := newFleetFixture(t)
	src := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := src.Add("m", fx.monitor(t, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ProcessBatch("m", fx.stream[:400]); err != nil {
		t.Fatal(err)
	}
	if err := src.DemoteMember("m", edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ProcessBatch("m", fx.stream[400:500]); err != nil {
		t.Fatal(err)
	}
	// A parallel twin fleet predicts what the migrated member must do.
	ref := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := ref.Add("m", fx.monitor(t, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ProcessBatch("m", fx.stream[:400]); err != nil {
		t.Fatal(err)
	}
	if err := ref.DemoteMember("m", edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ProcessBatch("m", fx.stream[400:500]); err != nil {
		t.Fatal(err)
	}

	st, err := src.ExportMember("m")
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 0 {
		t.Fatal("export did not deregister the member")
	}
	dst := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := dst.ImportMember(st, len(fx.stream[0])); err != nil {
		t.Fatal(err)
	}
	degraded, active, _, err := dst.MemberPrecision("m")
	if err != nil || !degraded || active != edgedrift.Float32 {
		t.Fatalf("imported member: degraded=%v active=%v err=%v", degraded, active, err)
	}
	got, err := dst.ProcessBatch("m", fx.stream[500:700])
	if err != nil {
		t.Fatal(err)
	}
	wantRS, err := ref.ProcessBatch("m", fx.stream[500:700])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRS) {
		t.Fatal("imported demoted member diverges from the reference twin")
	}
	if err := dst.PromoteMember("m"); err != nil {
		t.Fatal(err)
	}
	if degraded, active, _, _ := dst.MemberPrecision("m"); degraded || active != edgedrift.Float64 {
		t.Fatalf("promotion after migration: degraded=%v active=%v", degraded, active)
	}
}

// FuzzLoadFleet is the loader's crash-resistance harness, FLEET4
// edition: arbitrary mutations of a container holding a plain member, a
// demoted f32 member and a demoted q16 member must either load cleanly
// or fail with an error — never panic. The corpus seeds the valid
// artifact plus a handful of structured prefixes.
func FuzzLoadFleet(f *testing.F) {
	fx := newFleetFixture(f)
	fl := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for i, id := range []string{"a", "b", "c"} {
		if err := fl.Add(id, fx.monitor(f, uint64(40+i))); err != nil {
			f.Fatal(err)
		}
		if _, err := fl.ProcessBatch(id, fx.stream[:200]); err != nil {
			f.Fatal(err)
		}
	}
	if err := fl.DemoteMember("a", edgedrift.Float32); err != nil {
		f.Fatal(err)
	}
	if err := fl.DemoteMember("b", edgedrift.Fixed16); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fl.Save(&buf, edgedrift.Float64); err != nil {
		f.Fatal(err)
	}
	art := buf.Bytes()
	f.Add(art)
	f.Add(art[:len(art)/2])
	f.Add([]byte("FLEET4"))
	f.Add([]byte("FLEET1\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := edgedrift.LoadFleet(bytes.NewReader(data), edgedrift.FleetConfig{})
		if err != nil {
			return
		}
		// Whatever loaded must be re-saveable: the decoded members are
		// real stages, not half-initialised wreckage.
		var out bytes.Buffer
		if err := g.Save(&out, edgedrift.Float64); err != nil {
			t.Fatalf("loaded fleet cannot re-save: %v", err)
		}
	})
}
