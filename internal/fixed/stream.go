package fixed

import (
	"fmt"

	"edgedrift/internal/core"
	"edgedrift/internal/health"
)

// Stream adapts a quantised Monitor to the core.Streaming stage
// contract, so the fleet layer can host Q16.16 members next to float
// detectors. Input samples are quantised through a retained buffer;
// results are widened back to float64.
type Stream struct {
	mon *Monitor
	xq  []Q
	xqb [][]Q // batchChunk quantise rows for ProcessBatch (lazy)
}

// NewStream wraps a quantised monitor as a streaming stage.
func NewStream(mon *Monitor) *Stream {
	return &Stream{mon: mon, xq: make([]Q, mon.dims)}
}

// Monitor returns the wrapped fixed-point monitor.
func (s *Stream) Monitor() *Monitor { return s.mon }

// Inputs returns the sample dimension the stage accepts.
func (s *Stream) Inputs() int { return len(s.xq) }

// quantizeSample fills dst from x. A sample of the wrong dimension
// panics, as it does in core.Detector: a shorter one would otherwise be
// scored against the stale tail of the reused buffer.
func quantizeSample(dst []Q, x []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("fixed: sample dimension %d, want %d", len(x), len(dst)))
	}
	for i, v := range x {
		dst[i] = FromFloat(v)
	}
}

// Process quantises one sample and runs the fixed-point monitor on it.
func (s *Stream) Process(x []float64) core.Result {
	quantizeSample(s.xq, x)
	r := s.mon.Process(s.xq)
	return core.Result{
		Label:         r.Label,
		Score:         r.Score.Float(),
		Phase:         s.phaseNow(),
		DriftDetected: r.DriftDetected,
	}
}

// ProcessBatch quantises a chunk of samples into retained staging rows,
// scores the chunk through the monitor's batched kernel, then drives
// the drift state machine one sample at a time — reading the phase
// after each step, exactly as the per-sample path observes it. The
// quantised model never trains on-device, so the batched prediction is
// always semantics-preserving and the results are bit-identical to
// per-sample Process calls.
func (s *Stream) ProcessBatch(dst []core.Result, xs [][]float64) []core.Result {
	if s.xqb == nil {
		s.xqb = make([][]Q, batchChunk)
		for i := range s.xqb {
			s.xqb[i] = make([]Q, s.mon.dims)
		}
	}
	labels, scores := s.mon.ensureBatch()
	for start := 0; start < len(xs); start += batchChunk {
		end := start + batchChunk
		if end > len(xs) {
			end = len(xs)
		}
		n := end - start
		chunk := s.xqb[:n]
		for i, x := range xs[start:end] {
			quantizeSample(chunk[i], x)
		}
		s.mon.scoreBatch(labels[:n], scores[:n], chunk)
		for i := 0; i < n; i++ {
			s.mon.samples++
			r := s.mon.step(chunk[i], labels[i], scores[i])
			dst = append(dst, core.Result{
				Label:         r.Label,
				Score:         r.Score.Float(),
				Phase:         s.phaseNow(),
				DriftDetected: r.DriftDetected,
			})
		}
	}
	return dst
}

// phaseNow maps the monitor's state onto the detector phase vocabulary:
// an open check window is Checking, a drift awaiting host action is
// Reconstructing (the adaptation is in flight, just host-side in the
// split deployment), everything else is Monitoring.
func (s *Stream) phaseNow() core.Phase {
	switch {
	case s.mon.pending:
		return core.Reconstructing
	case s.mon.check:
		return core.Checking
	default:
		return core.Monitoring
	}
}

// MemoryBytes audits the stage's retained state.
func (s *Stream) MemoryBytes() int {
	total := s.mon.MemoryBytes() + 4*len(s.xq)
	for _, row := range s.xqb {
		total += 4 * len(row)
	}
	return total
}

// Health reports the fixed-point stage's view of itself. Integer state
// cannot go non-finite, so PFinite is always true; the interesting
// counter is QuantSaturations, which records how much of the float
// model clipped when this stage was quantised.
func (s *Stream) Health() health.Snapshot {
	return health.Snapshot{
		SamplesSeen:      s.mon.samples,
		PFinite:          true,
		QuantSaturations: uint64(s.mon.sat),
		Phase:            s.phaseNow().String(),
	}
}

var _ core.Streaming = (*Stream)(nil)
var _ core.BatchStreaming = (*Stream)(nil)
