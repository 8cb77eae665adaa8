package fixed

import (
	"math"
	"strings"
	"testing"

	"edgedrift/internal/core"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// batchTrace builds a float sample sequence that covers every monitor
// regime: stationary monitoring, an open check window, a drift
// detection, and the pending phase after it.
func batchTrace(r *rng.Rand, n int) [][]float64 {
	xs := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		shift := 0.0
		if i >= n/3 {
			shift = 4 // drifted regime for the back two-thirds
		}
		xs = append(xs, monSample(r, i%monClasses, shift))
	}
	return xs
}

func quantTrace(xs [][]float64) [][]Q {
	qs := make([][]Q, len(xs))
	for i, x := range xs {
		qs[i] = QuantizeVec(x)
	}
	return qs
}

func TestMonitorProcessBatchMatchesProcess(t *testing.T) {
	det, r := calibratedFloatDetector(t, 11)
	xs := quantTrace(batchTrace(r, 700))
	for _, bs := range []int{1, 3, 63, 64, 65, 130, 700} {
		seq := QuantizeDetector(det)
		bat := QuantizeDetector(det)
		var seqOps, batOps opcount.Counter
		seq.SetOps(&seqOps)
		bat.SetOps(&batOps)

		// ClearDrift only at segment boundaries, the same stream
		// positions on both paths, so the comparison stays fair while
		// still exercising the pending and post-clear regimes.
		seg := len(xs) / 2
		want := make([]Result, 0, len(xs))
		for i, x := range xs {
			want = append(want, seq.Process(x))
			if i == seg {
				seq.ClearDrift()
			}
		}
		got := make([]Result, 0, len(xs))
		for start := 0; start < len(xs); start += bs {
			end := start + bs
			if end > len(xs) {
				end = len(xs)
			}
			for i := start; i < end; i++ {
				got = bat.ProcessBatch(got, xs[i:i+1])
				if i == seg {
					bat.ClearDrift()
				}
			}
		}
		// Re-run the whole trace in true chunks on a third monitor and a
		// fourth per-sample reference without any clears, so chunked
		// batches (not just size-1 ones) are exercised too.
		seq2 := QuantizeDetector(det)
		bat2 := QuantizeDetector(det)
		want2 := make([]Result, 0, len(xs))
		for _, x := range xs {
			want2 = append(want2, seq2.Process(x))
		}
		got2 := make([]Result, 0, len(xs))
		for start := 0; start < len(xs); start += bs {
			end := start + bs
			if end > len(xs) {
				end = len(xs)
			}
			got2 = bat2.ProcessBatch(got2, xs[start:end])
		}
		for i := range want2 {
			if got2[i] != want2[i] {
				t.Fatalf("bs=%d (chunked) sample %d: got %+v want %+v", bs, i, got2[i], want2[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("bs=%d: %d results, want %d", bs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bs=%d sample %d: got %+v want %+v", bs, i, got[i], want[i])
			}
		}
		if seqOps != batOps {
			t.Fatalf("bs=%d: op counters diverge: seq %+v bat %+v", bs, seqOps, batOps)
		}
		se, be := seq.Events(), bat.Events()
		if len(se) != len(be) {
			t.Fatalf("bs=%d: events %v vs %v", bs, be, se)
		}
		for i := range se {
			if se[i] != be[i] {
				t.Fatalf("bs=%d: events %v vs %v", bs, be, se)
			}
		}
	}
}

func TestStreamProcessBatchMatchesProcess(t *testing.T) {
	det, r := calibratedFloatDetector(t, 12)
	xs := batchTrace(r, 500)
	for _, bs := range []int{1, 5, 64, 65, 130} {
		seq := NewStream(QuantizeDetector(det))
		bat := NewStream(QuantizeDetector(det))

		// No clears: the pending phase persists after the detection, so
		// the trace covers monitoring, checking and the pending regime.
		want := make([]core.Result, 0, len(xs))
		for _, x := range xs {
			want = append(want, seq.Process(x))
		}
		got := make([]core.Result, 0, len(xs))
		for start := 0; start < len(xs); start += bs {
			end := start + bs
			if end > len(xs) {
				end = len(xs)
			}
			got = bat.ProcessBatch(got, xs[start:end])
		}
		if len(got) != len(want) {
			t.Fatalf("bs=%d: %d results, want %d", bs, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Label != w.Label || g.Phase != w.Phase ||
				g.DriftDetected != w.DriftDetected || g.Rejected != w.Rejected ||
				math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("bs=%d sample %d: got %+v want %+v", bs, i, g, w)
			}
		}
		if seq.Health() != bat.Health() {
			t.Fatalf("bs=%d: health diverges: %+v vs %+v", bs, bat.Health(), seq.Health())
		}
	}
}

func TestMonitorProcessBatchZeroAllocs(t *testing.T) {
	det, r := calibratedFloatDetector(t, 13)
	mon := QuantizeDetector(det)
	xs := quantTrace(batchTrace(r, 96))
	dst := make([]Result, 0, len(xs))
	// Prime the lazy batch buffers.
	dst = mon.ProcessBatch(dst, xs)
	mon.ClearDrift()
	allocs := testing.AllocsPerRun(100, func() {
		dst = mon.ProcessBatch(dst[:0], xs)
		mon.ClearDrift()
	})
	if allocs != 0 {
		t.Fatalf("ProcessBatch allocates %v per call, want 0", allocs)
	}
}

func TestStreamProcessBatchZeroAllocs(t *testing.T) {
	det, r := calibratedFloatDetector(t, 14)
	s := NewStream(QuantizeDetector(det))
	xs := batchTrace(r, 96)
	dst := make([]core.Result, 0, len(xs))
	dst = s.ProcessBatch(dst, xs)
	s.Monitor().ClearDrift()
	allocs := testing.AllocsPerRun(100, func() {
		dst = s.ProcessBatch(dst[:0], xs)
		s.Monitor().ClearDrift()
	})
	if allocs != 0 {
		t.Fatalf("Stream.ProcessBatch allocates %v per call, want 0", allocs)
	}
}

func TestMonitorBatchMemoryAccounted(t *testing.T) {
	det, r := calibratedFloatDetector(t, 15)
	mon := QuantizeDetector(det)
	before := mon.MemoryBytes()
	xs := quantTrace(batchTrace(r, 8))
	mon.ProcessBatch(make([]Result, 0, len(xs)), xs)
	after := mon.MemoryBytes()
	if after <= before {
		t.Fatalf("batch staging not audited: %d -> %d", before, after)
	}
}

func TestMonitorProcessBatchPanicsOnBadDims(t *testing.T) {
	det, _ := calibratedFloatDetector(t, 16)
	mon := QuantizeDetector(det)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mon.ProcessBatch(nil, [][]Q{make([]Q, monDims-1)})
}

// TestStreamPanicsOnBadDims: a float sample of the wrong dimension must
// panic in both entry points, as core.Detector does. A shorter sample
// once scored against the stale tail of the reused quantise buffer, and
// a longer one overran it with an index panic.
func TestStreamPanicsOnBadDims(t *testing.T) {
	det, r := calibratedFloatDetector(t, 17)
	x := batchTrace(r, 1)[0]
	for _, dims := range []int{monDims - 1, monDims + 1} {
		bad := make([]float64, dims)
		copy(bad, x)
		for name, call := range map[string]func(s *Stream){
			"Process":      func(s *Stream) { s.Process(bad) },
			"ProcessBatch": func(s *Stream) { s.ProcessBatch(nil, [][]float64{bad}) },
		} {
			s := NewStream(QuantizeDetector(det))
			s.ProcessBatch(nil, [][]float64{x}) // fill the buffers a short sample would leave stale
			s.Process(x)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "sample dimension") {
						t.Errorf("%s of a %d-dim sample: panic %q, want a sample-dimension panic", name, dims, msg)
					}
				}()
				call(s)
			}()
		}
	}
}
