package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"edgedrift/internal/wire"
)

// driftbenchBin is the serving binary the smoke runs spawn, built once.
var driftbenchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "layerbench-test")
	if err != nil {
		panic(err)
	}
	driftbenchBin = filepath.Join(dir, "driftbench")
	build := exec.Command("go", "build", "-o", driftbenchBin, "edgedrift/cmd/driftbench")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("build driftbench: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := genDataset(w, 7), genDataset(w, 7), genDataset(w, 8)
			sample := func(d *dataset) [][]float64 {
				var out [][]float64
				for slot := 0; slot < 3; slot++ {
					for gen := 0; gen < 2; gen++ {
						s := d.stream(slot, gen)
						for _, i := range []int{0, 17, s.driftAt + 5} {
							if i >= 0 {
								x, _ := s.at(i)
								out = append(out, x)
							}
						}
					}
				}
				return out
			}
			if !reflect.DeepEqual(sample(a), sample(b)) {
				t.Fatal("same seed generated different streams")
			}
			if reflect.DeepEqual(sample(a), sample(c)) {
				t.Fatal("different seeds generated identical streams")
			}
			if a.stream(1, 0).id == a.stream(2, 0).id {
				t.Fatal("two slots share a stream ID")
			}
			ta, err := trainTemplate(a)
			if err != nil {
				t.Fatal(err)
			}
			tb, _ := trainTemplate(b)
			tc, _ := trainTemplate(c)
			if !bytes.Equal(ta, tb) || bytes.Equal(ta, tc) {
				t.Fatal("template artifact is not a function of the seed")
			}
		})
	}
}

func TestChurnStreamsCrossTheDrift(t *testing.T) {
	w, _ := findWorkload("drift-churn")
	d := genDataset(w, 3)
	for slot := 0; slot < w.streams; slot++ {
		s := d.stream(slot, 1)
		if s.life != churnLife || s.driftAt < churnLife/4-churnJitter || s.driftAt > churnLife/4+churnJitter {
			t.Fatalf("slot %d: life %d drift %d, want %d crossing near a quarter", slot, s.life, s.driftAt, churnLife)
		}
		if d.stream(slot, 1).id == d.stream(slot, 2).id {
			t.Fatalf("slot %d: a replacement stream reuses its ID", slot)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false}, // 9 samples above the median
		{20, 0.5, 10, true},
		{21, 0.5, 11, true},
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	for n, want := range map[int]float64{10: 0, 20: 0.5, 99: 0.5, 100: 0.9, 1000: 0.99, 10000: 0.999} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{name: "p", start: 0, end: 100}
	for _, c := range []struct {
		kids []span
		want int64
	}{
		{nil, 100},
		{[]span{{start: 10, end: 30}}, 80},
		// Overlapping children are counted once; a child sticking out of
		// the parent counts only inside it.
		{[]span{{start: 10, end: 30}, {start: 20, end: 50}, {start: 60, end: 70}, {start: 90, end: 120}}, 40},
		{[]span{{start: 0, end: 100}, {start: 40, end: 60}}, 0},
		{[]span{{start: -20, end: -10}}, 100},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.kids, got, c.want)
		}
	}
	// A served batch: router relay 100..900 holds the shard span
	// 200..700, which holds queue wait, compute and ack write.
	b := batchSpans{due: 50, acked: 1000, routerIn: 100, routerOut: 900,
		shardIn: 200, shardOut: 700, computeIn: 300, computeOut: 600}
	spans := b.spans()
	for name, want := range map[string]int64{
		"loadgen.batch": 950 - 800, "router.relay": 800 - 500, "shard.serve": 0, "fleet.compute": 300,
	} {
		if got, ok := selfOf(spans, name); !ok || got != want {
			t.Errorf("self(%s) = %d, %v; want %d", name, got, ok, want)
		}
	}
}

// gatePass is a synthetic served pass of 1200 open-loop batches of 16
// samples, each sent lag ns after its due time, whose system books
// agree with the loadgen's.
func gatePass(lag int64, lagLimit time.Duration) *pass {
	w, _ := findWorkload("drift-churn")
	cd := &connDriver{}
	for i := 0; i < 1200; i++ {
		due := int64(i) * 1e6
		cd.recs = append(cd.recs, &batchRec{n: 16, phase: phaseOpen, status: acked,
			due: due, sent: due + lag, done: due + lag + 5e5})
	}
	return &pass{
		cfg: config{lagLimit: lagLimit}, w: w,
		d:     &driver{conns: []*connDriver{cd}, insts: map[[2]int]*instStats{}},
		probe: &batchRec{n: 16, phase: phaseSetup, status: acked},
		setup: []float64{0.01}, openLen: 1200e6, closedLen: 1e9,
		cpuMarks:     make([]map[string]time.Duration, windows+1),
		shardMetrics: map[string]float64{"edgedrift_samples_total": 1201 * 16},
		checked:      1201 * 16,
	}
}

func TestGates(t *testing.T) {
	if _, gate := endToEndMetrics(gatePass(1e5, time.Millisecond)); len(gate) != 0 {
		t.Fatalf("a clean pass was gated: %q", gate)
	}

	p := gatePass(2e6, time.Millisecond)
	ms, gate := endToEndMetrics(p)
	if len(gate) != 1 || !strings.HasPrefix(gate[0], invalidLag) {
		t.Errorf("a generator 2 ms behind passed a 1 ms lag limit: %q", gate)
	}
	if v := ms["loadgen.lag_p99_ms"]; v.v != 2 || v.n != 1200 {
		t.Errorf("loadgen.lag_p99_ms = %+v, want 2 ms over 1200 batches", v)
	}

	// A shed batch: the system's books agree, so only the failed gate
	// can see it.
	p = gatePass(1e5, time.Millisecond)
	p.d.conns[0].recs[7].status = shed
	p.shardMetrics["edgedrift_samples_total"] -= 16
	p.shardMetrics["edgedrift_shard_shed_samples_total"] = 16
	p.checked -= 16
	if _, gate := endToEndMetrics(p); len(gate) != 1 || !strings.HasPrefix(gate[0], "failed_ratio=") {
		t.Errorf("a shed batch was not gated as failed: %q", gate)
	}
}

func TestLagLimitRejectsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	var stdout, stderr bytes.Buffer
	code := runMain(smokeArgs(t, "nsl-serve", "0", "-lag-limit", "1ns"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d with a 1 ns lag limit, want 1", code)
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatal("an invalid run printed a result line")
	}
	if !strings.Contains(stderr.String(), invalidLag) {
		t.Fatalf("gate did not name the lag:\n%s", stderr.String())
	}
}

func TestFrameScannerFindsBatchFrames(t *testing.T) {
	var stream bytes.Buffer
	frame := func(typ byte, payload []byte) {
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
		hdr[4] = typ
		stream.Write(hdr[:])
		stream.Write(payload)
	}
	frame(wire.TypeHello, []byte("EDW1\x01"))
	batch, err := wire.AppendBatch(nil, "alpha", [][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	frame(wire.TypeBatch, batch)
	frame(wire.TypeStats, nil)
	frame(wire.TypeBatchAck, wire.AppendResults(nil, "be", nil))
	frame(wire.TypeShed, wire.AppendShed(nil, "c", 3))
	want := []string{"alpha", "be", "c"}
	for _, chunk := range []int{1, 3, 7, stream.Len()} {
		var got []string
		s := frameScanner{emit: func(_ byte, id string) { got = append(got, id) }}
		p := stream.Bytes()
		for len(p) > 0 {
			n := min(chunk, len(p))
			s.feed(p[:n])
			p = p[n:]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("chunk %d: frames %q, want %q", chunk, got, want)
		}
	}
}

// smokeArgs runs a workload briefly.
func smokeArgs(t *testing.T, workload string, trace string, extra ...string) []string {
	return append([]string{"-workload", workload, "-seed", "3", "-seconds", "2",
		"-trace", trace, "-driftbench", driftbenchBin, "-out", t.TempDir(), "-root", ".."}, extra...)
}

// lastLine parses the result line of a run's standard output.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				if code := runMain(smokeArgs(t, w.name, trace), &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
				}
				res := lastLine(t, stdout.String())
				if res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
					t.Fatalf("result %v", res)
				}
				got := res["metrics"].(map[string]any)
				var want []string
				if trace == "1" {
					for _, m := range perLayer {
						want = append(want, m.name)
					}
				} else {
					for _, m := range endToEndDefs {
						if m.comparable() {
							want = append(want, m.name)
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("got %d metrics, want %d", len(got), len(want))
				}
				for _, name := range want {
					if _, ok := got[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
				for _, m := range endToEndDefs {
					if !strings.Contains(stdout.String(), "metric "+m.name) {
						t.Errorf("end-to-end metric %s not printed", m.name)
					}
				}
			})
		}
	}
}

func TestCorruptedReferenceTripsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := runMain(smokeArgs(t, w.name, "0", "-corrupt-reference"), &stdout, &stderr)
			if code == 0 {
				t.Fatal("a corrupted reference passed the correctness gate")
			}
			if strings.Contains(stdout.String(), `"correct"`) {
				t.Fatal("a rejected run printed a result line")
			}
			if !strings.Contains(stderr.String(), "results_mismatch=") {
				t.Fatalf("gate did not name the mismatch:\n%s", stderr.String())
			}
		})
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	var e2e []metricDef
	for _, m := range endToEndDefs {
		if m.comparable() {
			e2e = append(e2e, m)
		}
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d comparable in the table", len(spec.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		s := spec.EndToEnd[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better || s.Bound != m.bound {
			t.Errorf("end-to-end %d: %+v, want %s %s %s %g", i, s, m.name, m.unit, m.better, m.bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		s := spec.PerLayer[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("per-layer %d: %+v, want %s %s %s", i, s, m.name, m.unit, m.better)
		}
	}
}

func TestCompareRefusesMixedHosts(t *testing.T) {
	a := record{Workload: "nsl-serve", Host: hostInfo{NProc: 2, CPUModel: "x", GoVersion: "go1", GOMAXPROCS: 2},
		Metrics: map[string]recordMetric{"setup_s": {Value: 1, Unit: "s"}}}
	b := a
	b.Host.NProc = 4
	var out bytes.Buffer
	if err := compareRecords(&out, a, b); !errors.Is(err, errMixedHosts) {
		t.Fatalf("compare across hosts: %v", err)
	}
	b = a
	b.Host.Seed = 9 // the seed is provenance, not host
	if err := compareRecords(&out, a, b); err != nil {
		t.Fatalf("compare on one host: %v", err)
	}
}
