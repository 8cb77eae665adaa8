package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"edgedrift"
	"edgedrift/internal/core"
	"edgedrift/internal/mat"
	"edgedrift/internal/router"
	"edgedrift/internal/shard"
	"edgedrift/internal/wire"
)

// Lower layers are timed by replaying the workload's own batches into
// each layer's public entry point, on fresh template clones: inclusive
// time per sample, with self time as the difference between adjacent
// layers. FLOP and byte counts are computed from the shapes.

// replayBatch is one captured batch of the workload.
type replayBatch struct {
	id     string
	xs     [][]float64
	labels []int
}

// replayInstance is one stream instance's batches, in order.
type replayInstance []replayBatch

// replaySet regenerates the batches the run sent to a few stream
// instances: long enough to cross the drift where the workload has
// one, so reconstruction is replayed where it happens.
func replaySet(ds *dataset) []replayInstance {
	w := ds.w
	type pick struct{ slot, gen, samples int }
	var picks []pick
	switch w.name {
	case "nsl-serve":
		for s := 0; s < 4; s++ {
			picks = append(picks, pick{s, 0, 2048})
		}
	case "drift-churn":
		for s := 0; s < 2; s++ {
			picks = append(picks, pick{s, 1, churnLife})
		}
	default:
		sp := ds.stream(0, 0)
		n := (sp.driftAt + 4*w.nrecon) / w.batch * w.batch
		picks = append(picks, pick{0, 0, n})
	}
	var out []replayInstance
	for _, p := range picks {
		sp := ds.stream(p.slot, p.gen)
		var inst replayInstance
		for start := 0; start+w.batch <= p.samples; start += w.batch {
			b := replayBatch{id: sp.id}
			for i := start; i < start+w.batch; i++ {
				x, y := sp.at(i)
				b.xs = append(b.xs, x)
				b.labels = append(b.labels, y)
			}
			inst = append(inst, b)
		}
		out = append(out, inst)
	}
	return out
}

// replayReps is how many times each replayed layer is timed; the
// fastest repetition is reported, since interference from other tenants
// of the host only ever adds time to a CPU-bound call.
const replayReps = 9

// timer collects timed layer bodies and runs them interleaved, rep by
// rep, so a slow moment on the host spreads over every layer instead
// of landing on one. Each body returns the time it measured, leaving
// its set-up (clones) untimed.
type timer struct {
	names  []string
	bodies []func() time.Duration
}

func (t *timer) add(name string, body func() time.Duration) {
	t.names = append(t.names, name)
	t.bodies = append(t.bodies, body)
}

// run returns each body's fastest time.
func (t *timer) run() map[string]time.Duration {
	out := map[string]time.Duration{}
	for rep := 0; rep < replayReps; rep++ {
		for i, body := range t.bodies {
			runtime.GC()
			d := body()
			if best, ok := out[t.names[i]]; !ok || d < best {
				out[t.names[i]] = d
			}
		}
	}
	return out
}

// timedStage times its monitor's ProcessBatch calls, so the fleet's own
// share of ProcessBatchInto is measured per call rather than as the
// difference of two separately timed loops.
type timedStage struct {
	*edgedrift.Monitor
	inner *time.Duration
}

func (s timedStage) ProcessBatch(dst []edgedrift.Result, xs [][]float64) []edgedrift.Result {
	t0 := time.Now()
	dst = s.Monitor.ProcessBatch(dst, xs)
	*s.inner += time.Since(t0)
	return dst
}

// since times fn.
func since(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// allocsOf counts the heap allocations and bytes of fn.
func allocsOf(fn func()) (allocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// replayLayers measures every lower layer on the replay set.
func replayLayers(ds *dataset, tmpl []byte, bin string, ms metricSet) error {
	w := ds.w
	set := replaySet(ds)
	samples := 0
	for _, inst := range set {
		samples += len(inst) * w.batch
	}
	// Fresh clones for every timed pass over stateful layers; clones
	// are validated once here, so later failures are benchmark bugs.
	clones := func() []*edgedrift.Monitor {
		out := make([]*edgedrift.Monitor, len(set))
		for i := range out {
			m, err := cloneTemplate(tmpl)
			if err != nil {
				panic(err)
			}
			out[i] = m
		}
		return out
	}
	if _, err := cloneTemplate(tmpl); err != nil {
		return err
	}
	// stateful times body over the replay set on fresh clones.
	stateful := func(body func(m *edgedrift.Monitor, inst replayInstance)) func() time.Duration {
		return func() time.Duration {
			mons := clones()
			return since(func() {
				for i, inst := range set {
					body(mons[i], inst)
				}
			})
		}
	}
	// Read-only model and kernel layers share one clone.
	model := clones()[0].Model()
	labels := make([]int, w.batch)
	scores := make([]float64, w.batch)
	type weights struct{ w, beta *mat.Matrix }
	var ws []weights
	for c := 0; c < w.classes; c++ {
		wd, _, bd := model.Instance(c).Model().Weights()
		ws = append(ws, weights{
			mat.NewFromData(w.hidden, w.inputs, append([]float64(nil), wd...)),
			mat.NewFromData(w.hidden, w.inputs, append([]float64(nil), bd...)),
		})
	}
	hb := mat.New(w.batch, w.hidden)
	ob := mat.New(w.batch, w.inputs)
	eachBatch := func(fn func(b replayBatch)) {
		for _, inst := range set {
			for _, b := range inst {
				fn(b)
			}
		}
	}

	var rs []core.Result
	var t timer
	t.add("edgedrift", stateful(func(m *edgedrift.Monitor, inst replayInstance) {
		for _, b := range inst {
			rs = m.ProcessBatch(rs[:0], b.xs)
		}
	}))
	t.add("core", stateful(func(m *edgedrift.Monitor, inst replayInstance) {
		for _, b := range inst {
			rs = m.Detector().ProcessBatch(rs[:0], b.xs)
		}
	}))
	var fleetSelf time.Duration
	t.add("fleet", func() time.Duration {
		f := edgedrift.NewFleet(edgedrift.FleetConfig{})
		var inner time.Duration
		for i, m := range clones() {
			if err := f.AddStage(set[i][0].id, timedStage{m, &inner}); err != nil {
				panic(err)
			}
		}
		d := since(func() {
			eachBatch(func(b replayBatch) { rs, _ = f.ProcessBatchInto(rs[:0], b.id, b.xs) })
		})
		if self := d - inner; fleetSelf == 0 || self < fleetSelf {
			fleetSelf = self
		}
		return d
	})
	t.add("predict", func() time.Duration {
		return since(func() { eachBatch(func(b replayBatch) { model.PredictBatch(labels, scores, b.xs) }) })
	})
	t.add("score", func() time.Duration {
		return since(func() {
			for c := 0; c < w.classes; c++ {
				ae := model.Instance(c)
				eachBatch(func(b replayBatch) { ae.ScoreBatch(scores, b.xs) })
			}
		})
	})
	t.add("gemm", func() time.Duration {
		return since(func() {
			for _, wt := range ws {
				eachBatch(func(b replayBatch) {
					mat.MulBatchRows(hb, b.xs, wt.w)
					mat.MulBatchTrans(ob, hb, wt.beta)
				})
			}
		})
	})
	t.add("model.train", stateful(func(m *edgedrift.Monitor, inst replayInstance) {
		mm := m.Model()
		for _, b := range inst {
			for i, x := range b.xs {
				mm.Train(x, b.labels[i])
			}
		}
	}))
	t.add("oselm.train", stateful(func(m *edgedrift.Monitor, inst replayInstance) {
		ae := m.Model().Instance(0)
		for _, b := range inst {
			for _, x := range b.xs {
				ae.Train(x)
			}
		}
	}))
	times := t.run()

	// Reconstruction: the per-sample path on a stream through the
	// drift (where the workload itself never reconstructs, too), timed
	// sample by sample and bucketed by the phase each sample ended in.
	var reconNs time.Duration
	reconN := 0
	cross := ds.crossing()
	det := clones()[0].Detector()
	for i := 0; i < cross.life; i++ {
		x, _ := cross.at(i)
		t0 := time.Now()
		if det.Process(x).Phase == core.Reconstructing {
			reconNs += time.Since(t0)
			reconN++
		}
	}

	perSample := func(name string) value {
		return value{v: float64(times[name]) / float64(samples), n: samples}
	}
	flops := 4.0 * float64(w.classes*w.inputs*w.hidden)
	// Bytes moved by the two scoring kernels per sample and instance: W
	// streamed once per 4-sample block (MulBatchRows), β once per sample
	// (MulBatchTrans is a per-row matvec), plus the input row read, the
	// hidden row written and read back, and the output row written.
	bytesPer := float64(w.classes) * 8 * (float64(w.hidden*w.inputs)/4 + float64(w.hidden*w.inputs) +
		float64(w.inputs) + 2*float64(w.hidden) + float64(w.inputs))
	gemm := perSample("gemm")
	ms["mat.gemm_ns_per_sample"] = gemm
	ms["mat.flops_per_sample"] = value{v: flops, n: samples}
	ms["mat.bytes_per_sample"] = value{v: bytesPer, n: samples}
	ms["mat.gflops"] = value{v: flops / gemm.v, n: samples}
	ms["oselm.score_ns_per_sample"] = perSample("score")
	ms["model.predict_ns_per_sample"] = perSample("predict")
	ms["oselm.train_ns_per_sample"] = perSample("oselm.train")
	ms["model.train_ns_per_sample"] = perSample("model.train")
	if reconN > 0 {
		ms["core.reconstruct_ns_per_sample"] = value{v: float64(reconNs) / float64(reconN), n: reconN}
	} else {
		ms["core.reconstruct_ns_per_sample"] = value{na: "the crossing stream was never reconstructed"}
	}
	// Self time of the detector: its inclusive time on the replay set
	// minus the model's batched scoring.
	coreV := perSample("core")
	ms["core.monitor_ns_per_sample"] = coreV
	ms["core.self_ns_per_sample"] = value{v: coreV.v - ms["model.predict_ns_per_sample"].v, n: samples}
	ms["edgedrift.ns_per_sample"] = perSample("edgedrift")
	ms["fleet.ns_per_sample"] = perSample("fleet")
	ms["fleet.self_ns_per_batch"] = value{v: float64(fleetSelf) / float64(samples/w.batch), n: samples / w.batch}

	replayClones(ds, tmpl, ms)
	if err := replayWire(set, tmpl, w.batch, ms); err != nil {
		return err
	}
	if !w.viaRouter {
		return replayRelay(set, tmpl, bin, w.batch, ms)
	}
	return nil
}

// cloneReps is how many template clones (and first batches) are timed.
const cloneReps = 64

// replayClones times the per-stream template clone and, where the
// traced run saw too few new streams to support a median, a stream's
// first batch (clone plus its first ProcessBatch).
func replayClones(ds *dataset, tmpl []byte, ms metricSet) {
	first := ds.stream(0, 0).batchAt(nil, 0, ds.w.batch)
	var clone, firstBatch []float64
	for i := 0; i < cloneReps; i++ {
		t0 := time.Now()
		m, err := cloneTemplate(tmpl)
		if err != nil {
			panic(err) // validated at set-up
		}
		t1 := time.Now()
		m.ProcessBatch(nil, first)
		clone = append(clone, float64(t1.Sub(t0))/1e3)
		firstBatch = append(firstBatch, float64(time.Since(t0))/1e6)
	}
	v, _ := percentile(clone, 0.5)
	ms["edgedrift.clone_us"] = value{v: v, n: len(clone)}
	if _, ok := ms["shard.first_batch_ms_p50"]; !ok {
		v, _ := percentile(firstBatch, 0.5)
		ms["shard.first_batch_ms_p50"] = value{v: v, n: len(firstBatch)}
	}
}

// replayWire times the wire codec on the replayed batches and counts
// the allocations of the shard's per-batch path (decode → fleet →
// ack encode; the network itself excluded).
func replayWire(set []replayInstance, tmpl []byte, batch int, ms metricSet) error {
	var all []replayBatch
	for _, inst := range set {
		all = append(all, inst...)
	}
	// Results to encode: the reference replay of each instance.
	results := make([][]core.Result, len(all))
	k := 0
	for _, inst := range set {
		mon, err := cloneTemplate(tmpl)
		if err != nil {
			return err
		}
		for _, b := range inst {
			results[k] = mon.ProcessBatch(nil, b.xs)
			k++
		}
	}
	payloads := make([][]byte, len(all))
	acks := make([][]byte, len(all))
	for i, b := range all {
		var err error
		if payloads[i], err = wire.AppendBatch(nil, b.id, b.xs); err != nil {
			return err
		}
		acks[i] = wire.AppendResults(nil, b.id, results[i])
	}
	var buf []byte
	var rs []core.Result
	encBatch := func() {
		for _, b := range all {
			buf, _ = wire.AppendBatch(buf[:0], b.id, b.xs)
		}
	}
	decBatch := func() {
		for _, p := range payloads {
			pb, err := wire.ParseBatch(p)
			if err == nil {
				pb.Decode(nil)
			}
		}
	}
	encAck := func() {
		for i, b := range all {
			buf = wire.AppendResults(buf[:0], b.id, results[i])
		}
	}
	decAck := func() {
		for _, a := range acks {
			_, rs, _ = wire.ParseResults(a, rs[:0])
		}
	}
	n := float64(len(all))
	var t timer
	t.add("wire.encode_batch_ns", func() time.Duration { return since(encBatch) })
	t.add("wire.decode_batch_ns", func() time.Duration { return since(decBatch) })
	t.add("wire.encode_ack_ns", func() time.Duration { return since(encAck) })
	t.add("wire.decode_ack_ns", func() time.Duration { return since(decAck) })
	for name, d := range t.run() {
		ms[name] = value{v: float64(d) / n, n: len(all)}
	}
	var allocs uint64
	for _, fn := range []func(){encBatch, decBatch, encAck, decAck} {
		a, _ := allocsOf(fn)
		allocs += a
	}
	ms["wire.allocs_per_batch"] = value{v: float64(allocs) / n, n: len(all)}
	frameBytes := 0
	for i := range all {
		frameBytes += len(payloads[i]) + 5 + len(acks[i]) + 5
	}
	ms["wire.frame_bytes_per_sample"] = value{v: float64(frameBytes) / (n * float64(batch)), n: len(all)}

	// The shard's batch path on a fresh fleet with the members created.
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for _, inst := range set {
		mon, err := cloneTemplate(tmpl)
		if err != nil {
			return err
		}
		if err := f.Add(inst[0].id, mon); err != nil {
			return err
		}
	}
	var res []core.Result
	var ack []byte
	a, b := allocsOf(func() {
		for _, p := range payloads {
			pb, err := wire.ParseBatch(p)
			if err != nil {
				continue
			}
			res, _ = f.ProcessBatchInto(res[:0], pb.Stream, pb.Decode(nil))
			ack = wire.AppendResults(ack[:0], pb.Stream, res)
		}
	})
	ms["shard.allocs_per_batch"] = value{v: float64(a) / n, n: len(all)}
	ms["shard.alloc_bytes_per_batch"] = value{v: float64(b) / n, n: len(all)}
	return nil
}

// spanLayers derives the span-based per-layer metrics of a traced pass.
// In process (fan-device) the fleet call is the only seam: queue wait
// is due time to stage start (waiting for the single caller), ack write
// is stage end to return, and the first batch of a stream is its stage
// span, template clone included, as in the shard.
func spanLayers(p *pass, ms metricSet) {
	tr := p.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var queue, compute, write, relay, routerSelf, loadSelf, first []float64
	type ev struct {
		t int64
		d int
	}
	var evs []ev
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for k, b := range tr.batches {
		in, out := b.shardIn, b.shardOut
		if p.w.inProcess {
			in, out = b.due, b.acked
		}
		if in > 0 && b.computeIn > 0 {
			evs = append(evs, ev{in, 1}, ev{b.computeIn, -1})
		}
		if k.seq == 0 && in > 0 && out > 0 {
			first = append(first, float64(out-in)/1e6)
		}
		if b.phase != phaseOpen || b.acked == 0 {
			continue
		}
		spans := b.spans()
		if s, ok := selfOf(spans, "loadgen.batch"); ok {
			loadSelf = append(loadSelf, us(s))
		}
		if in > 0 && b.computeIn > 0 && out > 0 {
			queue = append(queue, us(b.computeIn-in))
			write = append(write, us(out-b.computeOut))
		}
		if b.computeIn > 0 {
			compute = append(compute, us(b.computeOut-b.computeIn))
		}
		if b.routerIn > 0 && b.routerOut > 0 {
			relay = append(relay, us(b.routerOut-b.routerIn))
			if s, ok := selfOf(spans, "router.relay"); ok {
				routerSelf = append(routerSelf, us(s))
			}
		}
	}
	pct := func(name string, xs []float64, q float64) {
		v, ok := percentile(xs, q)
		if !ok {
			ms[name] = value{na: "fewer than 10 samples beyond the percentile"}
			return
		}
		ms[name] = value{v: v, n: len(xs)}
	}
	pct("shard.queue_wait_us_p50", queue, 0.5)
	pct("shard.queue_wait_us_p90", queue, 0.9)
	pct("shard.compute_us_p50", compute, 0.5)
	pct("shard.compute_us_p90", compute, 0.9)
	pct("shard.ack_write_us_p50", write, 0.5)
	if _, ok := percentile(first, 0.5); ok {
		pct("shard.first_batch_ms_p50", first, 0.5)
	}
	pct("loadgen.self_us_p50", loadSelf, 0.5)
	if p.rt != nil {
		pct("router.relay_us_p50", relay, 0.5)
		pct("router.relay_us_p90", relay, 0.9)
		pct("router.self_us_p50", routerSelf, 0.5)
	}

	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	depth, maxDepth := 0, 0
	for _, e := range evs {
		depth += e.d
		maxDepth = max(maxDepth, depth)
	}
	ms["shard.queue_depth_max"] = value{v: float64(maxDepth), n: len(evs) / 2}
	ms["shard.streams_created"] = value{v: p.shardMetrics["edgedrift_streams"], n: 1}
	ms["shard.shed_batches"] = value{v: p.shardMetrics["edgedrift_shard_shed_batches_total"], n: 1}
	if p.rt != nil {
		batches := p.routeMetrics["edgedrift_route_batches_total"]
		ms["router.shard_dials_per_kbatch"] = value{v: float64(tr.accepts["shard"]) / batches * 1000, n: int(batches)}
		ms["router.forward_errors"] = value{v: p.routeMetrics["edgedrift_route_forward_errors_total"], n: int(batches)}
	}
}

// relayBatches is how many batches are replayed through the relay.
const relayBatches = 600

// replayRelay measures the router on a workload whose path has none,
// by replaying its batches one at a time through a router: relay and
// self time from the spans of an in-process router and shard behind
// traced listeners, as on nsl-serve; CPU per sample from the real
// driftbench route process relaying the same batches.
func replayRelay(set []replayInstance, tmpl []byte, bin string, batch int, ms metricSet) error {
	var all []replayBatch
	for len(all) < relayBatches {
		for _, inst := range set {
			all = append(all, inst...)
		}
	}
	all = all[:relayBatches]
	samples := len(all) * batch
	drive := func(addr string) error {
		c, err := wire.Dial(addr, 10*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		for _, b := range all {
			if _, err := roundTrip(c, b.id, b.xs); err != nil {
				return fmt.Errorf("relay replay: %w", err)
			}
		}
		return nil
	}

	// In process, traced.
	tr := newTracer()
	p := &pass{tr: tr}
	defer p.teardown()
	srv, err := shard.New(shard.Config{Template: tmpl, QueueDepth: 64, Logf: discardLogf})
	if err != nil {
		return err
	}
	shardAddr, err := serveInProc(p, "shard", srv.Serve, func() { srv.Close() })
	if err != nil {
		return err
	}
	rt, err := router.New(router.Config{Shards: []string{shardAddr}, Logf: discardLogf})
	if err != nil {
		return err
	}
	routerAddr, err := serveInProc(p, "router", rt.Serve, func() { rt.Close() })
	if err != nil {
		return err
	}
	if err := drive(routerAddr); err != nil {
		return err
	}
	var relay, self []float64
	tr.mu.Lock()
	for _, b := range tr.batches {
		if b.routerIn == 0 || b.routerOut == 0 {
			continue
		}
		relay = append(relay, float64(b.routerOut-b.routerIn)/1e3)
		if s, ok := selfOf(b.spans(), "router.relay"); ok {
			self = append(self, float64(s)/1e3)
		}
	}
	tr.mu.Unlock()
	for _, q := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"router.relay_us_p50", relay, 0.5}, {"router.relay_us_p90", relay, 0.9}, {"router.self_us_p50", self, 0.5}} {
		if v, ok := percentile(q.xs, q.q); ok {
			ms[q.name] = value{v: v, n: len(q.xs)}
		} else {
			ms[q.name] = value{na: "fewer than 10 samples beyond the percentile"}
		}
	}
	var buf bytes.Buffer
	if err := rt.WriteMetrics(&buf); err != nil {
		return err
	}
	rm, err := parseExposition(&buf)
	if err != nil {
		return err
	}
	batches := rm["edgedrift_route_batches_total"]
	ms["router.shard_dials_per_kbatch"] = value{v: float64(tr.accepts["shard"]) / batches * 1000, n: int(batches)}
	ms["router.forward_errors"] = value{v: rm["edgedrift_route_forward_errors_total"], n: int(batches)}

	// Real processes, for the router's CPU time.
	dir, err := os.MkdirTemp(filepath.Dir(bin), "relay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "template.bin")
	if err := os.WriteFile(path, tmpl, 0o644); err != nil {
		return err
	}
	sp, err := spawnShard(bin, path)
	if err != nil {
		return err
	}
	defer sp.stop()
	rp, err := spawnRoute(bin, sp.addr)
	if err != nil {
		return err
	}
	defer rp.stop()
	cpu0, err := schedCPU(rp.cmd.Process.Pid)
	if err != nil {
		return err
	}
	if err := drive(rp.addr); err != nil {
		return err
	}
	cpu1, err := schedCPU(rp.cmd.Process.Pid)
	if err != nil {
		return err
	}
	ms["router.cpu_us_per_sample"] = value{v: (cpu1 - cpu0).Seconds() * 1e6 / float64(samples), n: samples}
	return nil
}
