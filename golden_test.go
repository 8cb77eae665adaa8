package edgedrift_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/mat"
)

// The golden-stream regression contract: the composable pipeline must be
// bit-identical to the monolithic pre-refactor Monitor. These
// fingerprints were recorded at the seed HEAD (before the pipeline
// refactor) by hashing every per-sample Result field — label, score
// bits, distance bits, phase, drift flag, rejection flag — plus the
// drift-event index list over a fixed NSL-KDD slice. Any change to the
// state machine's arithmetic, ordering, or guard semantics changes the
// hash.
const (
	goldenCleanFP    = "5a6544ada0f662ab"
	goldenPoisonedFP = "c8eca51621581921"
	goldenClampFP    = "313e07398693cb2b"
)

// goldenDataset is a compact NSL-KDD surrogate slice: big enough to
// drive the detector through calibration, a drift detection, and a full
// reconstruction; small enough to keep the regression test interactive.
func goldenDataset() *nslkdd.Dataset {
	p := nslkdd.DefaultParams()
	p.TrainN = 1200
	p.TestN = 4000
	p.DriftAt = 2000
	return nslkdd.Generate(p)
}

// goldenMonitor builds the fixed configuration the fingerprints lock.
func goldenMonitor(t testing.TB, guard edgedrift.GuardPolicy) *edgedrift.Monitor {
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: 2,
		Inputs:  nslkdd.Features,
		Hidden:  22,
		Window:  100,
		Seed:    1,
		Guard:   guard,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// fingerprint replays xs through mon and hashes every Result field that
// the paper's evaluation depends on, bit for bit.
func fingerprint(mon *edgedrift.Monitor, xs [][]float64) string {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	bit := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, x := range xs {
		r := mon.Process(x)
		u64(uint64(r.Label))
		u64(math.Float64bits(r.Score))
		u64(math.Float64bits(r.Dist))
		u64(uint64(r.Phase))
		bit(r.DriftDetected)
		bit(r.Rejected)
	}
	for _, e := range mon.DriftEvents() {
		u64(uint64(e))
	}
	u64(uint64(mon.Reconstructions()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// poison returns a copy of xs with a deterministic sprinkling of
// non-finite features — the rejection-flag path of the fingerprint.
func poison(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		px := append([]float64(nil), x...)
		switch {
		case i%97 == 11:
			px[i%len(px)] = math.NaN()
		case i%251 == 42:
			px[0] = math.Inf(1)
		}
		out[i] = px
	}
	return out
}

// goldenCase is one fingerprinted replay: a guard policy, its input
// stream and the pinned fingerprint.
type goldenCase struct {
	name  string
	guard edgedrift.GuardPolicy
	xs    [][]float64
	want  string
}

func goldenCases(ds *nslkdd.Dataset) []goldenCase {
	return []goldenCase{
		{"clean/reject", edgedrift.GuardReject, ds.TestX, goldenCleanFP},
		{"poisoned/reject", edgedrift.GuardReject, poison(ds.TestX), goldenPoisonedFP},
		{"poisoned/clamp", edgedrift.GuardClamp, poison(ds.TestX), goldenClampFP},
	}
}

// TestGoldenStream locks the refactored pipeline to the pre-refactor
// Monitor output: drift indices, labels, scores, distances, phases and
// rejection flags must be bit-identical on the fixed NSL-KDD slice.
func TestGoldenStream(t *testing.T) {
	ds := goldenDataset()
	for _, tc := range goldenCases(ds) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mon := goldenMonitor(t, tc.guard)
			if err := mon.Fit(ds.TrainX, ds.TrainY); err != nil {
				t.Fatal(err)
			}
			got := fingerprint(mon, tc.xs)
			if got != tc.want {
				t.Errorf("golden fingerprint drifted: got %s, want %s", got, tc.want)
			}
		})
	}
}

// TestGoldenStreamScalarF64 replays the golden streams, per sample and
// batched, with the float64 SIMD kernels switched off. The fingerprints
// must be the same pinned bits TestGoldenStream and
// TestGoldenStreamBatched get on the dispatching path, which runs the
// AVX2 kernels wherever the CPU has them: SIMD on and off agree bit for
// bit.
func TestGoldenStreamScalarF64(t *testing.T) {
	if !mat.F64SIMD() {
		t.Skip("float64 SIMD kernels are off on this CPU; TestGoldenStream already runs the scalar path")
	}
	prev := mat.SetF64SIMD(false)
	defer mat.SetF64SIMD(prev)
	ds := goldenDataset()
	for _, tc := range goldenCases(ds) {
		t.Run(tc.name, func(t *testing.T) {
			mon := goldenMonitor(t, tc.guard)
			if err := mon.Fit(ds.TrainX, ds.TrainY); err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(mon, tc.xs); got != tc.want {
				t.Errorf("scalar fingerprint drifted: got %s, want %s", got, tc.want)
			}
			batched := goldenMonitor(t, tc.guard)
			if err := batched.Fit(ds.TrainX, ds.TrainY); err != nil {
				t.Fatal(err)
			}
			if got := fingerprintBatched(batched, tc.xs, 64); got != tc.want {
				t.Errorf("scalar batched fingerprint drifted: got %s, want %s", got, tc.want)
			}
		})
	}
}

// Float32 backend pins, recorded on an amd64 host with AVX2+FMA. The
// f32 kernels fuse multiply-adds there and round differently from the
// scalar fallback, so these bits hold only where mat.F32SIMD() is true.
const (
	goldenF32FP         = "45b6daa45adbe5a9" // clean, per sample and batched
	goldenF32PoisonedFP = "302f8fb8d01478ee" // poisoned, GuardReject
	goldenF32DemotedFP  = "5dcf4a9ad5eb0310" // f64 demoted to f32 after 500 samples
)

// TestGoldenStreamF32 locks the float32 backend's trajectory bit for
// bit: a Float32 monitor per sample, batched, and over the poisoned
// stream, plus an f64 monitor demoted to its f32 twin mid-stream.
func TestGoldenStreamF32(t *testing.T) {
	if !mat.F32SIMD() {
		t.Skip("float32 SIMD kernels are off on this CPU; the pins are taken on the SIMD path")
	}
	ds := goldenDataset()
	fitted := func(t *testing.T, prec edgedrift.Precision) *edgedrift.Monitor {
		mon, err := edgedrift.New(edgedrift.Options{
			Classes:   2,
			Inputs:    nslkdd.Features,
			Hidden:    22,
			Window:    100,
			Seed:      1,
			Precision: prec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Fit(ds.TrainX, ds.TrainY); err != nil {
			t.Fatal(err)
		}
		return mon
	}
	check := func(t *testing.T, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("f32 fingerprint drifted: got %s, want %s", got, want)
		}
	}
	t.Run("per-sample", func(t *testing.T) {
		check(t, fingerprint(fitted(t, edgedrift.Float32), ds.TestX), goldenF32FP)
	})
	t.Run("batched", func(t *testing.T) {
		check(t, fingerprintBatched(fitted(t, edgedrift.Float32), ds.TestX, 64), goldenF32FP)
	})
	t.Run("poisoned", func(t *testing.T) {
		check(t, fingerprint(fitted(t, edgedrift.Float32), poison(ds.TestX)), goldenF32PoisonedFP)
	})
	t.Run("demoted", func(t *testing.T) {
		mon := fitted(t, edgedrift.Float64)
		for _, x := range ds.TestX[:500] {
			mon.Process(x)
		}
		if err := mon.Demote(edgedrift.Float32); err != nil {
			t.Fatal(err)
		}
		check(t, fingerprint(mon, ds.TestX[500:]), goldenF32DemotedFP)
	})
}
