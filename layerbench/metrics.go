package main

import (
	"fmt"
	"sort"
)

// metricDef describes one reported metric. The end-to-end table is the
// contract BENCHMARK.json mirrors (a test keeps them in step).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end regression bound, share of the median
	// gated metrics are 0 by design on every workload: the run fails
	// when they are not, so they are printed and enforced but are not
	// comparable numbers.
	gated bool
	// perWorkload metrics exist only on some workloads; they are printed
	// where they apply and are not part of the comparable set.
	perWorkload bool
	// wallClock metrics move with the host's load from other tenants
	// (CPU steal) far more than with the code: they are printed, and
	// kept in the result record, but are not comparable numbers.
	wallClock bool
	doc       string // the definition, printed with the value
}

var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, doc: "template train plus process spawn until the first batch is acked (median of the run's set-ups)"},
	{name: "cpu_us_per_sample", unit: "us", better: "lower", bound: 0.25, doc: "CPU time of the system-under-test processes over the open-loop phase, per acked sample"},
	{name: "memory_bytes_per_stream", unit: "bytes", better: "lower", bound: 0.05, doc: "edgedrift_memory_bytes / edgedrift_streams (Fleet.MemoryBytes / Len in process)"},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.25, doc: "peak VmHWM summed over the system-under-test processes, read after the fixed-rate phases; in process, the rise of the benchmark's VmHWM (reset after a GC before the final set-up) over its resident set then"},
	{name: "peak_samples_per_s", unit: "1/s", better: "higher", wallClock: true, doc: "closed-loop throughput"},
	{name: "ack_p50_ms", unit: "ms", better: "lower", wallClock: true, doc: "median time from a batch's due time to its ack, at the fixed rate"},
	{name: "ack_p90_ms", unit: "ms", better: "lower", wallClock: true, doc: "90th percentile of the same time"},
	{name: "failed_ratio", unit: "ratio", better: "lower", gated: true, doc: "error, shed and missing acks over batches attempted"},
	{name: "results_mismatch", unit: "count", better: "lower", gated: true, doc: "acked samples whose results are not bit-identical to a reference Monitor.ProcessBatch replay on a template clone"},
	{name: "detect_delay_samples", unit: "samples", better: "lower", perWorkload: true, doc: "median detection delay against the known drift index"},
	{name: "missed_drifts", unit: "count", better: "lower", perWorkload: true, doc: "known drifts not detected within 2000 samples of the drift"},
	{name: "false_alarms", unit: "count", better: "lower", perWorkload: true, doc: "detections where no drift was injected (before the drift, or after the first detection of it)"},
	{name: "accuracy_pct", unit: "%", better: "higher", perWorkload: true, doc: "label accuracy over acked samples; labelled workloads only"},
}

// comparable reports whether m is one of the numbers a run's result
// line carries.
func (m metricDef) comparable() bool { return !m.gated && !m.perWorkload && !m.wallClock }

// layerDef is one per-layer metric with the end-to-end metric it
// should move and the workload where it should show.
type layerDef struct {
	name, unit, better string
	moves, where       string
}

var perLayer = []layerDef{
	{"mat.gemm_ns_per_sample", "ns", "lower", "cpu_us_per_sample, peak_samples_per_s", "fan-device (small on nsl-serve)"},
	{"mat.gflops", "GFLOP/s", "higher", "cpu_us_per_sample, peak_samples_per_s", "fan-device (small on nsl-serve)"},
	{"mat.flops_per_sample", "flop", "lower", "cpu_us_per_sample, peak_samples_per_s", "fan-device (computed from the shapes)"},
	{"mat.bytes_per_sample", "bytes", "lower", "cpu_us_per_sample, peak_samples_per_s", "fan-device (computed from the shapes)"},
	{"oselm.score_ns_per_sample", "ns", "lower", "cpu_us_per_sample, peak_samples_per_s", "fan-device, then nsl-serve"},
	{"model.predict_ns_per_sample", "ns", "lower", "cpu_us_per_sample, peak_samples_per_s", "fan-device, then nsl-serve"},
	{"oselm.train_ns_per_sample", "ns", "lower", "peak_samples_per_s", "drift-churn (about none on fan-device)"},
	{"model.train_ns_per_sample", "ns", "lower", "peak_samples_per_s", "drift-churn (about none on fan-device)"},
	{"core.reconstruct_ns_per_sample", "ns", "lower", "peak_samples_per_s", "drift-churn (about none on fan-device)"},
	{"core.reconstruct_share", "ratio", "lower", "peak_samples_per_s", "drift-churn (about none on fan-device)"},
	{"core.monitor_ns_per_sample", "ns", "lower", "cpu_us_per_sample", "nsl-serve, fan-device"},
	{"core.self_ns_per_sample", "ns", "lower", "cpu_us_per_sample", "nsl-serve, fan-device"},
	{"edgedrift.ns_per_sample", "ns", "lower", "cpu_us_per_sample", "nsl-serve, fan-device"},
	{"fleet.ns_per_sample", "ns", "lower", "cpu_us_per_sample", "nsl-serve"},
	{"fleet.self_ns_per_batch", "ns", "lower", "cpu_us_per_sample", "nsl-serve"},
	{"wire.encode_batch_ns", "ns", "lower", "cpu_us_per_sample, peak_samples_per_s", "nsl-serve (absent in fan-device)"},
	{"wire.decode_batch_ns", "ns", "lower", "cpu_us_per_sample, peak_samples_per_s", "nsl-serve (absent in fan-device)"},
	{"wire.encode_ack_ns", "ns", "lower", "cpu_us_per_sample, peak_samples_per_s", "nsl-serve (absent in fan-device)"},
	{"wire.decode_ack_ns", "ns", "lower", "cpu_us_per_sample, peak_samples_per_s", "nsl-serve (absent in fan-device)"},
	{"wire.allocs_per_batch", "count", "lower", "cpu_us_per_sample, peak_samples_per_s", "nsl-serve (absent in fan-device)"},
	{"wire.frame_bytes_per_sample", "bytes", "lower", "cpu_us_per_sample, peak_samples_per_s", "nsl-serve (absent in fan-device)"},
	{"shard.queue_wait_us_p50", "us", "lower", "ack_p50_ms, ack_p90_ms", "nsl-serve, drift-churn"},
	{"shard.queue_wait_us_p90", "us", "lower", "ack_p50_ms, ack_p90_ms", "nsl-serve, drift-churn"},
	{"shard.compute_us_p50", "us", "lower", "ack_p50_ms, ack_p90_ms", "nsl-serve, drift-churn"},
	{"shard.compute_us_p90", "us", "lower", "ack_p50_ms, ack_p90_ms", "nsl-serve, drift-churn"},
	{"shard.ack_write_us_p50", "us", "lower", "ack_p50_ms, ack_p90_ms", "nsl-serve, drift-churn"},
	{"shard.cpu_us_per_sample", "us", "lower", "cpu_us_per_sample, failed_ratio", "nsl-serve"},
	{"shard.allocs_per_batch", "count", "lower", "cpu_us_per_sample, failed_ratio", "nsl-serve"},
	{"shard.alloc_bytes_per_batch", "bytes", "lower", "cpu_us_per_sample, failed_ratio", "nsl-serve"},
	{"shard.shed_batches", "count", "lower", "cpu_us_per_sample, failed_ratio", "nsl-serve"},
	{"shard.queue_depth_max", "count", "lower", "cpu_us_per_sample, failed_ratio", "nsl-serve"},
	{"shard.first_batch_ms_p50", "ms", "lower", "ack_p90_ms, memory_bytes_per_stream, rss_mb", "drift-churn (none on nsl-serve)"},
	{"shard.streams_created", "count", "lower", "ack_p90_ms, memory_bytes_per_stream, rss_mb", "drift-churn (none on nsl-serve)"},
	{"edgedrift.clone_us", "us", "lower", "ack_p90_ms, memory_bytes_per_stream, rss_mb", "drift-churn (none on nsl-serve)"},
	{"router.relay_us_p50", "us", "lower", "ack_p50_ms, cpu_us_per_sample", "nsl-serve (absent in drift-churn)"},
	{"router.relay_us_p90", "us", "lower", "ack_p50_ms, cpu_us_per_sample", "nsl-serve (absent in drift-churn)"},
	{"router.self_us_p50", "us", "lower", "ack_p50_ms, cpu_us_per_sample", "nsl-serve (absent in drift-churn)"},
	{"router.cpu_us_per_sample", "us", "lower", "ack_p50_ms, cpu_us_per_sample", "nsl-serve (absent in drift-churn)"},
	{"router.shard_dials_per_kbatch", "count", "lower", "ack_p50_ms, cpu_us_per_sample", "nsl-serve (absent in drift-churn)"},
	{"router.forward_errors", "count", "lower", "ack_p50_ms, cpu_us_per_sample", "nsl-serve (absent in drift-churn)"},
	{"loadgen.self_us_p50", "us", "lower", "validity of the run", "all"},
	{"loadgen.ack_p99_ms", "ms", "lower", "diagnostic: p99 is too noisy for a bound on a 2-core host", "all"},
	{"loadgen.lag_p99_ms", "ms", "lower", "validity of the run", "all"},
	{"trace_overhead_pct", "%", "lower", "validity of the run", "all"},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
	// na marks a metric that does not apply to the workload (the layer
	// is absent, or a percentile lacks support); it is reported as 0.
	na string
}

// metricSet holds measured values by name.
type metricSet map[string]value

// printEndToEnd writes one line per end-to-end metric, in table order,
// with unit, sample count and definition.
func printEndToEnd(w func(format string, a ...any), ms metricSet) {
	for _, d := range endToEndDefs {
		m, ok := ms[d.name]
		switch {
		case !ok || m.na != "":
			w("metric %-24s = n/a %s (%s) — %s\n", d.name, d.unit, m.na, d.doc)
		default:
			w("metric %-24s = %.6g %s (n=%d) — %s\n", d.name, m.v, d.unit, m.n, d.doc)
		}
	}
}

// resultMetrics is the "metrics" object of the result line: every
// comparable end-to-end metric (trace 0) or every per-layer metric
// (trace 1), each with its unit.
func resultMetrics(ms metricSet, traced bool) (map[string]any, error) {
	out := map[string]any{}
	if traced {
		for _, m := range perLayer {
			out[m.name] = map[string]any{"value": ms[m.name].v, "unit": m.unit}
		}
		return out, nil
	}
	for _, m := range endToEndDefs {
		if !m.comparable() {
			continue
		}
		v, ok := ms[m.name]
		if !ok || v.na != "" {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		out[m.name] = map[string]any{"value": v.v, "unit": m.unit}
	}
	return out, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
