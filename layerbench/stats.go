package main

import (
	"hash/fnv"
	"math"
	"sort"

	"edgedrift/internal/core"
)

// minBeyond is how many samples must lie above a reported percentile:
// a timing is reported as its median and the highest percentile that
// still has at least this many samples beyond it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (sorted in
// place) and whether at least minBeyond samples lie beyond it. A
// percentile without that support is not reported.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx], n-1-idx >= minBeyond
}

// reportablePercentiles lists the percentiles a timing may be reported
// at, lowest first.
var reportablePercentiles = []float64{0.5, 0.9, 0.99, 0.999}

// highestPercentile returns the highest reportable percentile of n
// samples (0 when even the median lacks support).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range reportablePercentiles {
		idx := int(math.Ceil(q*float64(n))) - 1
		if idx >= 0 && n-1-idx >= minBeyond {
			best = q
		}
	}
	return best
}

// median of xs (sorted in place), with no support requirement; used
// for summarising repeated measurements such as set-up time.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// resultHash fingerprints a batch's results over exactly the fields the
// wire ack carries (label, phase, drift and reject flags, score and
// distance bit patterns), so a served ack and an in-process reference
// replay compare bit for bit.
func resultHash(rs []core.Result) uint64 {
	h := fnv.New64a()
	var b [22]byte
	for _, r := range rs {
		putU32(b[0:], uint32(int32(r.Label)))
		b[4] = byte(r.Phase)
		b[5] = 0
		if r.DriftDetected {
			b[5] |= 1
		}
		if r.Rejected {
			b[5] |= 2
		}
		putU64(b[6:], math.Float64bits(r.Score))
		putU64(b[14:], math.Float64bits(r.Dist))
		h.Write(b[:])
	}
	return h.Sum64()
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
