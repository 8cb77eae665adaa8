package main

import (
	"bytes"
	"fmt"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/coolingfan"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/rng"
)

// workload is one named traffic mix. Everything the system under test
// receives is generated from the run's seed by its data function.
type workload struct {
	name string
	why  string

	// Model shape and detector configuration of the template.
	classes, inputs, hidden, window int
	nrecon, nupdate                 int

	streams int // live streams
	conns   int // loadgen connections (served workloads)
	batch   int // samples per batch
	// rate is the open-loop offered load in samples/s, about a quarter
	// of the workload's closed-loop peak on a 2-core host.
	rate float64
	// inFlight bounds the batches outstanding per connection in the
	// closed-loop phase.
	inFlight int

	viaRouter bool // loadgen → route → shard (else loadgen → shard)
	inProcess bool // edgedrift.Fleet in the benchmark process, no network
	labelled  bool // ground-truth labels exist (accuracy_pct)
}

// workloads is the benchmark's fixed workload table.
var workloads = []workload{
	{
		name:    "nsl-serve",
		why:     "steady-state reads through route and shard processes: per-batch overhead (wire, queue, relay, fleet lookup) is a large share, reconstruction almost never runs",
		classes: 2, inputs: nslkdd.Features, hidden: 22, window: 100,
		streams: 64, conns: 2, batch: 16, rate: 40000, inFlight: 8,
		viaRouter: true, labelled: true,
	},
	{
		name:    "fan-device",
		why:     "in-process Fleet.ProcessBatchInto at the cooling-fan shape: mat/oselm kernels do nearly all the work, wire/shard/router are absent",
		classes: 1, inputs: coolingfan.Features, hidden: 22, window: 50,
		nrecon: 200, nupdate: 50,
		streams: 8, batch: 64, rate: 12000, inFlight: 1,
		inProcess: true,
	},
	{
		name:    "drift-churn",
		why:     "short-lived streams crossing the labelled drift straight into one shard: reconstruction (RLS training), template clones and fleet growth",
		classes: 2, inputs: nslkdd.Features, hidden: 22, window: 100,
		streams: 32, conns: 2, batch: 16, rate: 60000, inFlight: 8,
		labelled: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// churnLife is a drift-churn stream's lifetime in samples and
// churnLead the samples it sees before the labelled drift (about a
// quarter of its life, jittered per stream by up to ±churnJitter).
const (
	churnLife   = 4096
	churnLead   = 1024
	churnJitter = 128
)

// fanPoolNormal and fanPoolHoles size the shared spectrum pools the
// fan-device streams draw from; spectra are costly to synthesise, so
// streams walk the pools with per-stream offsets and strides instead.
const (
	fanPoolNormal = 512
	fanPoolHoles  = 256
	fanTrainN     = 120
)

// dataset is a workload's generated inputs: the template's training
// set and a source of per-stream sample sequences.
type dataset struct {
	w      workload
	seed   uint64
	trainX [][]float64
	trainY []int

	// NSL-KDD shape: the surrogate test stream and its drift index.
	testX   [][]float64
	testY   []int
	driftAt int

	// Cooling-fan shape: shared spectrum pools.
	normal, holes [][]float64
}

// genDataset builds a workload's inputs from the seed.
func genDataset(w workload, seed uint64) *dataset {
	d := &dataset{w: w, seed: seed}
	if w.inputs == coolingfan.Features {
		p := coolingfan.DefaultParams()
		p.Seed = seed
		g := coolingfan.NewGenerator(p)
		d.trainX, d.trainY = g.TrainingSet(fanTrainN)
		for i := 0; i < fanPoolNormal; i++ {
			d.normal = append(d.normal, g.Spectrum(coolingfan.Normal, coolingfan.Silent))
		}
		for i := 0; i < fanPoolHoles; i++ {
			d.holes = append(d.holes, g.Spectrum(coolingfan.Holes, coolingfan.Silent))
		}
		return d
	}
	p := nslkdd.DefaultParams()
	p.Seed = seed
	ds := nslkdd.Generate(p)
	d.trainX, d.trainY = ds.TrainX, ds.TrainY
	d.testX, d.testY, d.driftAt = ds.TestX, ds.TestY, ds.DriftAt
	return d
}

// streamSpec is one stream instance: its wire ID and how to produce
// its i-th sample. life is 0 for streams that never retire.
type streamSpec struct {
	id      string
	life    int
	driftAt int // index of the known drift in this stream, -1 for none
	at      func(i int) (x []float64, label int)
}

// stream returns instance gen of stream slot. Only drift-churn has more
// than one instance per slot: a retired stream is replaced by a fresh
// ID that starts over. Instances are fully determined by (seed, slot,
// gen), so the reference replay can regenerate any of them.
func (d *dataset) stream(slot, gen int) *streamSpec {
	r := rng.New(d.seed ^ uint64(slot+1)*0x9e3779b97f4a7c15 ^ uint64(gen+1)*0xbf58476d1ce4e5b9)
	switch d.w.name {
	case "nsl-serve":
		// Cycle the pre-drift part of the test stream from a per-stream
		// offset: no drift is ever injected.
		off := r.Intn(d.driftAt)
		return &streamSpec{
			id: fmt.Sprintf("serve-%03d", slot), driftAt: -1,
			at: func(i int) ([]float64, int) {
				j := (off + i) % d.driftAt
				return d.testX[j], d.testY[j]
			},
		}
	case "drift-churn":
		// A window of the test stream crossing the drift at about a
		// quarter of the stream's life. The first generation of each
		// slot retires early, by slot, so retirements are staggered.
		lead := churnLead + r.Intn(2*churnJitter+1) - churnJitter
		start := d.driftAt - lead
		life := churnLife
		if gen == 0 {
			life = churnLife * (slot + 1) / d.w.streams / d.w.batch * d.w.batch
		}
		return &streamSpec{
			id: fmt.Sprintf("churn-%03d-%05d", slot, gen), life: life, driftAt: lead,
			at: func(i int) ([]float64, int) { return d.testX[start+i], d.testY[start+i] },
		}
	default: // fan-device
		// A long normal-spectrum run with one sudden holes-damage drift.
		driftAt := 3000 + r.Intn(2000)
		off, stride := r.Intn(fanPoolNormal), 2*r.Intn(fanPoolNormal/2)+1
		offH, strideH := r.Intn(fanPoolHoles), 2*r.Intn(fanPoolHoles/2)+1
		return &streamSpec{
			id: fmt.Sprintf("fan-%02d", slot), driftAt: driftAt,
			at: func(i int) ([]float64, int) {
				if i < driftAt {
					return d.normal[(off+i*stride)%fanPoolNormal], 0
				}
				k := i - driftAt
				return d.holes[(offH+k*strideH)%fanPoolHoles], 0
			},
		}
	}
}

// crossing is a stream through the workload's drift, used to time the
// reconstruction path even on workloads that never reconstruct.
func (d *dataset) crossing() *streamSpec {
	if d.w.name == "fan-device" {
		s := d.stream(0, 0)
		s.life = s.driftAt + 4*d.w.nrecon
		return s
	}
	start := d.driftAt - churnLead
	return &streamSpec{
		id: "crossing", life: churnLife, driftAt: churnLead,
		at: func(i int) ([]float64, int) { return d.testX[start+i], d.testY[start+i] },
	}
}

// batchAt fills xs (reused) with samples [start, start+n) of s.
func (s *streamSpec) batchAt(xs [][]float64, start, n int) [][]float64 {
	xs = xs[:0]
	for i := start; i < start+n; i++ {
		x, _ := s.at(i)
		xs = append(xs, x)
	}
	return xs
}

// trainTemplate fits the workload's template monitor on the generated
// training set and returns its serialised artifact, the thing every
// stream of the system under test is cloned from.
func trainTemplate(d *dataset) ([]byte, error) {
	w := d.w
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: w.classes, Inputs: w.inputs, Hidden: w.hidden, Window: w.window,
		NRecon: w.nrecon, NUpdate: w.nupdate, Seed: d.seed,
	})
	if err != nil {
		return nil, err
	}
	if err := mon.Fit(d.trainX, d.trainY); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf, edgedrift.Float64); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cloneTemplate is the per-stream template clone, as a shard does it.
func cloneTemplate(tmpl []byte) (*edgedrift.Monitor, error) {
	return edgedrift.LoadMonitor(bytes.NewReader(tmpl))
}

// phasePlan splits a run's measured seconds into warm-up, open-loop and
// closed-loop phases.
type phasePlan struct {
	warm, open, closed time.Duration
}

func planFor(seconds float64) phasePlan {
	s := time.Duration(seconds * float64(time.Second))
	return phasePlan{warm: s / 10, open: s * 55 / 100, closed: s * 35 / 100}
}
