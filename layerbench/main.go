// Command layerbench is edgedrift's layered benchmark. It runs one named
// workload against the real serving binaries (or, for the device
// workload, the public edgedrift API in process), prints every
// end-to-end metric by name with its unit and sample count, checks
// every acked result bit for bit against an in-process reference
// replay, and ends with one JSON result line. With -trace 1 it also
// hosts the same shard and router servers in process behind tracing
// wrappers and prints the per-layer table instead.
//
//	layerbench -workload nsl-serve -seed 1 -seconds 12 -trace 0
//	layerbench compare A.json B.json
//
// Run it through layerbench/run.sh from the repository root, which
// builds the driftbench binary it spawns.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 15

// defaultLagLimit marks a run invalid when the open-loop generator's
// p99 lag behind its schedule exceeds it. A generator short of its rate
// by 0.6% over an 8.8 s open loop ends 50 ms behind, while a shared
// host's stalls alone have pushed the p99 to 7.5 ms.
const defaultLagLimit = 50 * time.Millisecond

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // driftbench binary for the served workloads
	outDir   string // spans, per-layer tables, results, templates
	root     string // repository root, for the provenance record
	// lagLimit is the open-loop validity threshold on the generator's
	// p99 lag behind its schedule.
	lagLimit time.Duration
	// corruptReference flips one reference result so the correctness
	// gate must trip (used by the tests).
	corruptReference bool
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: nsl-serve, fan-device or drift-churn")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 16, "measured seconds (warm-up 10%, open loop 55%, closed loop 35%)")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced in-process pass and prints the per-layer table")
	fs.StringVar(&cfg.bin, "driftbench", ".bench_build/driftbench", "driftbench binary the served workloads spawn")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/layerbench", "directory for spans, tables and result records")
	fs.StringVar(&cfg.root, "root", ".", "repository root (provenance record)")
	fs.DurationVar(&cfg.lagLimit, "lag-limit", defaultLagLimit, "the run is invalid when the open-loop generator's p99 lag behind its schedule exceeds this")
	fs.BoolVar(&cfg.corruptReference, "corrupt-reference", false, "flip one reference result, so the correctness gate must reject the run (a self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	w, ok := findWorkload(cfg.workload)
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "layerbench: need -workload one of %s, -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	if !w.inProcess {
		// The open-loop senders pace with nanosleep, a blocking system
		// call that holds its P; spare Ps keep the receivers running
		// meanwhile. The system under test runs in its own processes.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4 * runtime.NumCPU()))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	out := func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) }
	rec, err := runWorkload(cfg, w, out)
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	if len(rec.Violations) > 0 {
		for _, v := range rec.Violations {
			fmt.Fprintln(stderr, "layerbench: gate:", v)
		}
		fmt.Fprintln(stderr, "layerbench: run rejected; no numbers reported")
		return 1
	}
	metrics, err := resultMetrics(rec.metrics, cfg.trace)
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, cfg.seed, trace))
	if err := writeRecord(path, rec); err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	out("result record: %s\n", path)
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	out("%s\n", line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// record is a run's full result, written beside the spans.
type record struct {
	Workload   string                  `json:"workload"`
	Trace      bool                    `json:"trace"`
	Seconds    float64                 `json:"seconds"`
	Host       hostInfo                `json:"host"`
	LagLimitMs float64                 `json:"lag_limit_ms"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	Violations []string                `json:"violations,omitempty"`
	Metrics    map[string]recordMetric `json:"metrics"`

	metrics metricSet
}

type recordMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	NA    string  `json:"na,omitempty"`
}

func writeRecord(path string, rec *record) error {
	units := map[string]string{}
	for _, m := range endToEndDefs {
		units[m.name] = m.unit
	}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	rec.Metrics = map[string]recordMetric{}
	for name, v := range rec.metrics {
		rec.Metrics[name] = recordMetric{Value: v.v, Unit: units[name], N: v.n, NA: v.na}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload runs the untraced pass (and, traced, the traced pass and
// the layer replay) and gates the outcome.
func runWorkload(cfg config, w workload, out func(string, ...any)) (*record, error) {
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return nil, err
	}
	rec := &record{Workload: w.name, Trace: cfg.trace, Seconds: cfg.seconds, Host: readHost(root, cfg.seed),
		LagLimitMs: float64(cfg.lagLimit) / 1e6}
	host, _ := json.Marshal(rec.Host)
	out("layerbench: workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	out("host: %s\n", host)
	ds := genDataset(w, cfg.seed)

	plan := planFor(cfg.seconds)
	reps := setupReps
	if cfg.trace {
		// The traced invocation spends half its time on the measured
		// pass and half on an untraced and a traced in-process pass:
		// their throughput difference is the tracing overhead.
		plan = planFor(cfg.seconds / 2)
		reps = 1
	}
	out("phases: warm-up %v and open loop %v at %.0f samples/s, closed loop %v with %d batches in flight per connection\n",
		plan.warm, plan.open, w.rate, plan.closed, w.inFlight)
	p, err := runPass(cfg, w, ds, hostProcs, plan, reps)
	if err != nil {
		return nil, err
	}
	ms, gate := endToEndMetrics(p)
	rec.metrics = ms
	rec.Violations = gate
	rec.Attempted, rec.Failed = attemptedFailed(p)
	printEndToEnd(out, ms)
	printBooks(out, p)
	if v := ms["loadgen.lag_p99_ms"]; v.na == "" {
		out("validity: loadgen.lag_p99_ms = %.6g ms (n=%d), limit %g ms\n", v.v, v.n, rec.LagLimitMs)
	} else {
		out("validity: loadgen.lag_p99_ms = n/a (%s), judged at the highest supported percentile, limit %g ms\n", v.na, rec.LagLimitMs)
	}
	if !cfg.trace {
		return rec, nil
	}

	// The untraced baseline for the overhead: the in-process workload's
	// measured pass already is one; served workloads host the same
	// servers in process without the wrappers.
	base := p
	if !w.inProcess {
		plan = planFor(cfg.seconds / 4)
		if base, err = runPass(cfg, w, ds, hostInProc, plan, 1); err != nil {
			return nil, err
		}
	}
	tp, err := runPass(cfg, w, ds, hostTraced, plan, 1)
	if err != nil {
		return nil, err
	}
	passes := []*pass{p, tp}
	if base != p {
		passes = []*pass{p, base, tp}
	}
	var lat, lag []float64
	for _, extra := range passes {
		l, g := openLoopTimes(extra)
		lat, lag = append(lat, l...), append(lag, g...)
		if extra == p {
			continue
		}
		// The lag gate judges the measured pass; in-process passes share
		// the host with the loadgen, so their lag is reported, not gated.
		_, egate := endToEndMetrics(extra)
		for _, v := range egate {
			if !strings.HasPrefix(v, invalidLag) {
				rec.Violations = append(rec.Violations, v)
			}
		}
		a, f := attemptedFailed(extra)
		rec.Attempted += a
		rec.Failed += f
	}
	// Tracing overhead in CPU time per sample, which unlike throughput
	// does not follow the host's load: the traced pass against the
	// same hosting without the wrappers.
	baseMs, _ := endToEndMetrics(base)
	tpMs, _ := endToEndMetrics(tp)
	ms["trace_overhead_pct"] = value{
		v: 100 * (tpMs["cpu_us_per_sample"].v/baseMs["cpu_us_per_sample"].v - 1),
		n: tpMs["cpu_us_per_sample"].n,
	}
	// The generator's lag and the ack-time tail are diagnostics pooled
	// over every pass of the invocation, for enough samples at p99.
	for name, xs := range map[string][]float64{"loadgen.ack_p99_ms": lat, "loadgen.lag_p99_ms": lag} {
		if v, ok := percentile(xs, 0.99); ok {
			ms[name] = value{v: v, n: len(xs)}
		} else {
			ms[name] = value{na: "fewer than 10 samples beyond p99"}
		}
	}
	spanLayers(tp, ms)
	if err := replayLayers(ds, p.tmpl, cfg.bin, ms); err != nil {
		return nil, err
	}
	// Per-process CPU of the real binaries over the open loop; in
	// process the fleet's host is this process (the router's comes from
	// the relay replay on workloads without one).
	openSamples := float64(ms["cpu_us_per_sample"].n)
	for role, name := range map[string]string{"shard": "shard.cpu_us_per_sample", "route": "router.cpu_us_per_sample"} {
		if t, ok := p.openCPU[role]; ok {
			ms[name] = value{v: t.Seconds() * 1e6 / openSamples, n: int(openSamples)}
		}
	}
	if w.inProcess {
		ms["shard.cpu_us_per_sample"] = ms["cpu_us_per_sample"]
	}
	spans := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, cfg.seed))
	if err := tp.tr.writeSpans(spans); err != nil {
		return nil, err
	}
	out("spans: %s\n", spans)
	printLayerTable(out, w, ms)
	return rec, nil
}

// openLoopTimes returns the ack time and generator lag, in ms, of every
// acked open-loop batch of a pass.
func openLoopTimes(p *pass) (lat, lag []float64) {
	for _, r := range p.d.allRecs() {
		if r.phase == phaseOpen && r.status == acked {
			lat = append(lat, float64(r.done-r.due)/1e6)
			lag = append(lag, float64(r.sent-r.due)/1e6)
		}
	}
	return lat, lag
}

// attemptedFailed counts the batches a pass attempted (set-up probe
// included) and those not acked: errors, sheds and missing acks.
func attemptedFailed(p *pass) (attempted, failedN int) {
	for _, r := range append(p.d.allRecs(), p.probe) {
		attempted++
		if r.status != acked {
			failedN++
		}
	}
	return attempted, failedN
}

// endToEndMetrics derives the end-to-end metrics of a pass and the gate
// violations that void it.
func endToEndMetrics(p *pass) (metricSet, []string) {
	ms := metricSet{}
	var gate []string
	ms["setup_s"] = value{v: median(append([]float64(nil), p.setup...)), n: len(p.setup)}

	recs := p.d.allRecs()
	var lag []float64
	var latW [windows][]float64
	var openW, closedW [windows]int
	var openSamples, closedSamples, ackedSamples, shedSamples, missing int
	for _, r := range recs {
		switch r.status {
		case acked:
			ackedSamples += r.n
		case shed:
			shedSamples += r.n
		case pending:
			missing++
		}
		if r.status != acked {
			continue
		}
		switch r.phase {
		case phaseOpen:
			openSamples += r.n
			lag = append(lag, float64(r.sent-r.due)/1e6)
			if i := (r.due - p.openStart) * windows / p.openLen; i >= 0 && i < windows {
				latW[i] = append(latW[i], float64(r.done-r.due)/1e6)
				openW[i] += r.n
			}
		case phaseClosed:
			closedSamples += r.n
			if i := (r.done - p.closedStart) * windows / p.closedLen; i >= 0 && i < windows {
				closedW[i] += r.n
			}
		}
	}
	var rates, cpus []float64
	for i := 0; i < windows; i++ {
		rates = append(rates, float64(closedW[i])/(float64(p.closedLen)/windows/1e9))
		var cpu time.Duration
		for role, t := range p.cpuMarks[i+1] {
			cpu += t - p.cpuMarks[i][role]
		}
		if openW[i] > 0 {
			cpus = append(cpus, cpu.Seconds()*1e6/float64(openW[i]))
		}
	}
	ms["peak_samples_per_s"] = value{v: median(rates), n: closedSamples}
	if len(cpus) > 0 {
		ms["cpu_us_per_sample"] = value{v: median(cpus), n: openSamples}
	}
	var lat []float64
	for i := range latW {
		lat = append(lat, latW[i]...)
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"ack_p50_ms", 0.5}, {"ack_p90_ms", 0.9}} {
		var perWindow []float64
		for i := range latW {
			if v, ok := percentile(latW[i], q.q); ok {
				perWindow = append(perWindow, v)
			}
		}
		if len(perWindow) >= windows/2 {
			ms[q.name] = value{v: median(perWindow), n: len(lat)}
			continue
		}
		// Short runs: too few batches per window, so the whole phase.
		if v, ok := percentile(lat, q.q); ok {
			ms[q.name] = value{v: v, n: len(lat)}
		} else {
			ms[q.name] = value{na: "fewer than 10 samples beyond the percentile"}
		}
	}
	if p.streams > 0 {
		ms["memory_bytes_per_stream"] = value{v: p.memBytes / p.streams, n: int(p.streams)}
	}
	ms["rss_mb"] = value{v: float64(p.rssBytes) / 1e6, n: p.rssProcs}

	attempted, failedN := attemptedFailed(p)
	ms["failed_ratio"] = value{v: float64(failedN) / float64(attempted), n: attempted}
	if failedN > 0 {
		gate = append(gate, fmt.Sprintf("failed_ratio=%.3g: %d of %d batches errored, were shed or never answered", ms["failed_ratio"].v, failedN, attempted))
	}
	ms["results_mismatch"] = value{v: float64(p.mismatched), n: p.checked}
	if p.mismatched > 0 {
		gate = append(gate, fmt.Sprintf("results_mismatch=%d: acked results differ from the reference replay", p.mismatched))
	}
	if p.checked != ackedSamples+p.probe.n {
		gate = append(gate, fmt.Sprintf("checked %d samples, acked %d", p.checked, ackedSamples+p.probe.n))
	}

	// Conservation: every sent sample is acked, shed or failed, and the
	// system's own counters agree with the loadgen's books.
	if missing > 0 {
		gate = append(gate, fmt.Sprintf("%d batches never answered", missing))
	}
	if got := p.shardMetrics["edgedrift_samples_total"]; got != float64(ackedSamples+p.probe.n) {
		gate = append(gate, fmt.Sprintf("conservation: edgedrift_samples_total=%.0f, loadgen acked %d", got, ackedSamples+p.probe.n))
	}
	if !p.w.inProcess {
		if got := p.shardMetrics["edgedrift_shard_shed_samples_total"]; got != float64(shedSamples) {
			gate = append(gate, fmt.Sprintf("conservation: edgedrift_shard_shed_samples_total=%.0f, loadgen saw %d shed", got, shedSamples))
		}
	}
	// Open-loop validity: a generator that fell behind its schedule
	// offered less than the workload's rate, so the run is invalid.
	// Short runs lack support at p99 and are judged at the highest
	// percentile they support.
	if v, ok := percentile(lag, 0.99); ok {
		ms["loadgen.lag_p99_ms"] = value{v: v, n: len(lag)}
	} else {
		ms["loadgen.lag_p99_ms"] = value{na: "fewer than 10 samples beyond p99"}
	}
	if q := highestPercentile(len(lag)); q > 0 {
		limit := float64(p.cfg.lagLimit) / 1e6
		if v, _ := percentile(lag, q); v > limit {
			gate = append(gate, fmt.Sprintf("%s lag p%g = %.3g ms behind its schedule, over the %.3g ms limit", invalidLag, 100*q, v, limit))
		}
	}
	detection(p, ms)
	return ms, gate
}

// invalidLag starts the gate message of a run whose generator fell
// behind its schedule.
const invalidLag = "invalid run: open-loop generator"

// detectionGrace is how many post-drift samples a live stream must
// have been sent before an undetected drift counts as missed.
const detectionGrace = 2000

// detection scores the drift detections against the known drift
// indices and the predicted labels against ground truth.
func detection(p *pass, ms metricSet) {
	var delays []float64
	missed, falseAlarms, drifts, recon, samples, correct, labelled := 0, 0, 0, 0, 0, 0, 0
	for _, st := range p.d.insts {
		recon += st.recon
		samples += st.samples
		correct += st.correct
		labelled += st.labelled
		at := st.spec.driftAt
		first := -1
		for _, idx := range st.detections {
			switch {
			case at < 0 || idx < at || first >= 0:
				falseAlarms++
			default:
				first = idx
			}
		}
		if at < 0 || st.samples <= at {
			continue
		}
		if first >= 0 {
			delays = append(delays, float64(first-at))
			drifts++
		} else if st.samples-at >= detectionGrace {
			missed++
			drifts++
		}
	}
	if len(delays) > 0 {
		ms["detect_delay_samples"] = value{v: median(delays), n: len(delays)}
	} else {
		ms["detect_delay_samples"] = value{na: "no injected drift was reached and detected"}
	}
	ms["missed_drifts"] = value{v: float64(missed), n: drifts}
	ms["false_alarms"] = value{v: float64(falseAlarms), n: samples}
	if p.w.labelled && labelled > 0 {
		ms["accuracy_pct"] = value{v: 100 * float64(correct) / float64(labelled), n: labelled}
	} else {
		ms["accuracy_pct"] = value{na: "unlabelled workload"}
	}
	if samples > 0 {
		ms["core.reconstruct_share"] = value{v: float64(recon) / float64(samples), n: samples}
	}
}

// printBooks prints the conservation ledger of a pass.
func printBooks(out func(string, ...any), p *pass) {
	counts := map[int8]int{}
	for _, r := range p.d.allRecs() {
		counts[r.status] += r.n
	}
	out("books: sent=%d acked=%d shed=%d failed=%d missing=%d (+%d set-up probe samples); system: samples_total=%.0f shed_samples_total=%.0f streams=%.0f\n",
		counts[acked]+counts[shed]+counts[failed]+counts[pending], counts[acked], counts[shed], counts[failed], counts[pending],
		p.probe.n, p.shardMetrics["edgedrift_samples_total"], p.shardMetrics["edgedrift_shard_shed_samples_total"], p.streams)
}

// printLayerTable prints the per-layer table with the end-to-end metric
// each row should move and where.
func printLayerTable(out func(string, ...any), w workload, ms metricSet) {
	out("per-layer table (%s); mat.flops/bytes are computed from the shapes, replayed layers are inclusive time on template clones\n", w.name)
	out("%-32s %14s %-8s %8s  %s\n", "metric", "value", "unit", "n", "should move / where")
	for _, m := range perLayer {
		v := ms[m.name]
		val := fmt.Sprintf("%.6g", v.v)
		if v.na != "" {
			val = "n/a"
		}
		out("%-32s %14s %-8s %8d  %s on %s\n", m.name, val, m.unit, v.n, m.moves, m.where)
		if v.na != "" {
			out("%-32s   (%s)\n", "", v.na)
		}
	}
}

// runCompare prints the metric ratios of two result records, refusing
// records from different hosts.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: layerbench compare BASE.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "layerbench compare:", err)
			return 1
		}
	}
	if err := compareRecords(stdout, recs[0], recs[1]); err != nil {
		fmt.Fprintln(stderr, "layerbench compare:", err)
		return 1
	}
	return 0
}

var errMixedHosts = errors.New("records come from different hosts; compare only runs on the same host")

func compareRecords(w io.Writer, base, next record) error {
	if !base.Host.sameHost(next.Host) {
		return errMixedHosts
	}
	if base.Workload != next.Workload {
		return fmt.Errorf("workloads differ: %s vs %s", base.Workload, next.Workload)
	}
	fmt.Fprintf(w, "%-32s %14s %14s %9s\n", "metric", "base", "new", "new/base")
	for _, name := range sortedKeys(base.Metrics) {
		b, n := base.Metrics[name], next.Metrics[name]
		ratio := "-"
		if b.Value != 0 {
			ratio = fmt.Sprintf("%.3f", n.Value/b.Value)
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %9s %s\n", name, b.Value, n.Value, ratio, b.Unit)
	}
	return nil
}
