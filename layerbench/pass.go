package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"edgedrift"
	"edgedrift/internal/core"
	"edgedrift/internal/router"
	"edgedrift/internal/shard"
	"edgedrift/internal/wire"
)

// hosting says how a pass runs the system under test.
type hosting int8

const (
	// hostProcs spawns the driftbench shard (and route) processes; the
	// in-process workload has no processes and treats it as hostInProc.
	hostProcs hosting = iota
	// hostInProc serves shard.New/router.New in the benchmark process.
	hostInProc
	// hostTraced is hostInProc behind the tracing wrappers.
	hostTraced
)

// pass is one run of a workload against one system under test.
type pass struct {
	cfg  config
	w    workload
	ds   *dataset
	host hosting
	tmpl []byte

	setup []float64 // seconds per set-up repetition
	d     *driver
	probe *batchRec // the final set-up's first batch
	addr  string    // where the loadgen connects (served workloads)

	procs  []*proc // untraced served: shard first, then route
	srv    *shard.Server
	rt     *router.Router
	fleet  *edgedrift.Fleet // in-process workload
	tr     *tracer          // non-nil in a traced pass
	closer []func()

	openStart, openLen     int64
	closedStart, closedLen int64
	cpuMarks               []map[string]time.Duration // per role at open-loop window boundaries
	openCPU                map[string]time.Duration   // per role over the open loop
	shardMetrics           map[string]float64
	routeMetrics           map[string]float64
	rssBytes               int64
	rssProcs               int
	rssBase                int64 // in process: resident set when the final set-up began
	memBytes, streams      float64

	mismatched, checked int
}

// runPass sets the system up setupReps times (keeping the last), then
// drives warm-up, open-loop and closed-loop phases and checks every
// acked result against a reference replay.
func runPass(cfg config, w workload, ds *dataset, host hosting, plan phasePlan, setupReps int) (*pass, error) {
	p := &pass{cfg: cfg, w: w, ds: ds, host: host}
	if host == hostTraced {
		p.tr = newTracer()
	}
	defer p.teardown()
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			p.teardown()
		}
		// Collect the garbage of input generation and earlier set-ups
		// now, not inside the timed set-up.
		runtime.GC()
		if w.inProcess && rep == setupReps-1 {
			// The fleet lives in this process: its peak resident set is
			// measured from here, the harness's own peak set aside.
			var err error
			if p.rssBase, err = resetPeakRSS(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		t0 := time.Now()
		if err := p.start(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
	}
	if err := p.drive(plan); err != nil {
		return nil, err
	}
	if err := p.collect(); err != nil {
		return nil, err
	}
	p.teardown()
	var err error
	p.mismatched, p.checked, err = verify(p.ds, p.tmpl, p.d.allRecs(), cfg.corruptReference)
	if err != nil {
		return nil, err
	}
	// The set-up probe is checked like any other acked batch.
	if ref, err := probeHash(p.tmpl, p.probeSpec(), w.batch); err != nil {
		return nil, err
	} else if p.probe.status == acked {
		p.checked += p.probe.n
		if ref != p.probe.hash {
			p.mismatched += p.probe.n
		}
	}
	return p, nil
}

func (p *pass) teardown() {
	for i := len(p.closer) - 1; i >= 0; i-- {
		p.closer[i]()
	}
	p.closer = nil
	stopAll(p.procs)
	p.procs = nil
}

// probeSpec is the set-up probe: the first batch of stream slot 0's
// data under an ID of its own.
func (p *pass) probeSpec() *streamSpec {
	s := *p.ds.stream(0, 0)
	s.id = "setup-probe"
	return &s
}

// start is one set-up: train the template, bring the system up and get
// the first batch acked.
func (p *pass) start() error {
	tmpl, err := trainTemplate(p.ds)
	if err != nil {
		return err
	}
	p.tmpl = tmpl
	probe := p.probeSpec()
	xs := probe.batchAt(nil, 0, p.w.batch)
	p.probe = &batchRec{id: probe.id, slot: -1, n: p.w.batch, phase: phaseSetup}

	if p.w.inProcess {
		p.fleet = edgedrift.NewFleet(edgedrift.FleetConfig{})
		mon, err := cloneTemplate(tmpl)
		if err != nil {
			return err
		}
		if err := p.fleet.Add(probe.id, mon); err != nil {
			return err
		}
		rs, err := p.fleet.ProcessBatch(probe.id, xs)
		if err != nil {
			return err
		}
		p.probe.status, p.probe.hash = acked, resultHash(rs)
		return nil
	}

	if p.addr, err = p.startServed(tmpl); err != nil {
		return err
	}
	c, err := wire.Dial(p.addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	rs, err := roundTrip(c, probe.id, xs)
	if err != nil {
		return err
	}
	p.probe.status, p.probe.hash = acked, resultHash(rs)
	return nil
}

// roundTrip sends one batch on c and waits for its ack.
func roundTrip(c *wire.Conn, id string, xs [][]float64) ([]core.Result, error) {
	payload, err := wire.AppendBatch(nil, id, xs)
	if err != nil {
		return nil, err
	}
	if err := c.WriteFrame(wire.TypeBatch, payload); err != nil {
		return nil, err
	}
	typ, reply, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	if typ != wire.TypeBatchAck {
		return nil, fmt.Errorf("batch answered with frame %#x: %s", typ, reply)
	}
	_, rs, err := wire.ParseResults(reply, nil)
	return rs, err
}

// startServed brings up shard (and router) and returns the address the
// loadgen connects to.
func (p *pass) startServed(tmpl []byte) (string, error) {
	if p.host != hostProcs {
		srv, err := shard.New(shard.Config{Template: tmpl, QueueDepth: 64, Logf: discardLogf})
		if err != nil {
			return "", err
		}
		shardAddr, err := serveInProc(p, "shard", srv.Serve, func() { srv.Close() })
		if err != nil {
			return "", err
		}
		p.srv = srv
		if !p.w.viaRouter {
			return shardAddr, nil
		}
		rt, err := router.New(router.Config{Shards: []string{shardAddr}, Logf: discardLogf})
		if err != nil {
			return "", err
		}
		p.rt = rt
		return serveInProc(p, "router", rt.Serve, func() { rt.Close() })
	}

	path := filepath.Join(p.cfg.outDir, fmt.Sprintf("template-%d.bin", os.Getpid()))
	if err := os.WriteFile(path, tmpl, 0o644); err != nil {
		return "", err
	}
	p.closer = append(p.closer, func() { os.Remove(path) })
	sp, err := spawnShard(p.cfg.bin, path)
	if err != nil {
		return "", err
	}
	p.procs = append(p.procs, sp)
	if !p.w.viaRouter {
		return sp.addr, nil
	}
	rp, err := spawnRoute(p.cfg.bin, sp.addr)
	if err != nil {
		return "", err
	}
	p.procs = append(p.procs, rp)
	return rp.addr, nil
}

// serveInProc serves an in-process server on a loopback listener,
// wrapped for tracing in a traced pass, and registers its shutdown.
func serveInProc(p *pass, layer string, serve func(net.Listener) error, stop func()) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if p.tr != nil {
		ln = &tracedListener{Listener: ln, tr: p.tr, layer: layer}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ln)
	}()
	p.closer = append(p.closer, func() {
		stop()
		<-done
	})
	return ln.Addr().String(), nil
}

// drive runs the three phases.
func (p *pass) drive(plan phasePlan) error {
	d := newDriver(p.w, p.ds, p.tr)
	p.d = d
	switch {
	case p.w.inProcess:
		d.addFleet(p.fleet)
		d.onNew = func(s *streamSpec) error {
			if p.tr != nil {
				return p.fleet.AddStage(s.id, &tracedStage{id: s.id, tmpl: p.tmpl, tr: p.tr})
			}
			mon, err := cloneTemplate(p.tmpl)
			if err != nil {
				return err
			}
			return p.fleet.Add(s.id, mon)
		}
	default:
		if p.tr != nil {
			d.onNew = func(s *streamSpec) error {
				return p.srv.Fleet().AddStage(s.id, &tracedStage{id: s.id, tmpl: p.tmpl, tr: p.tr})
			}
		}
		for i := 0; i < p.w.conns; i++ {
			c, err := wire.Dial(p.addr, 10*time.Second)
			if err != nil {
				return err
			}
			d.addConn(c)
		}
		p.closer = append(p.closer, d.closeConns)
	}
	d.assignSlots()

	if err := d.phaseRun(phaseWarm, plan.warm, p.w.rate); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	p.openStart, p.openLen = d.now(), int64(plan.open)
	marked := make(chan error, 1)
	go func() { marked <- p.markCPU(d) }()
	if err := d.phaseRun(phaseOpen, plan.open, p.w.rate); err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	if err := <-marked; err != nil {
		return err
	}
	p.openCPU = map[string]time.Duration{}
	for role, t := range p.cpuMarks[windows] {
		p.openCPU[role] = t - p.cpuMarks[0][role]
	}
	if err := p.readRSS(); err != nil {
		return err
	}
	p.closedStart, p.closedLen = d.now(), int64(plan.closed)
	if err := d.phaseRun(phaseClosed, plan.closed, 0); err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	return nil
}

// windows is how many equal windows the open- and closed-loop phases
// are cut into. Rates, CPU and latency percentiles are taken per
// window and the median window is reported: on a shared host a burst
// of CPU steal then moves one window, not the figure.
const windows = 12

// markCPU reads the system's CPU time at every open-loop window
// boundary.
func (p *pass) markCPU(d *driver) error {
	for i := 0; i <= windows; i++ {
		if wait := p.openStart + p.openLen*int64(i)/windows - d.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		m, err := p.cpu()
		if err != nil {
			return err
		}
		p.cpuMarks = append(p.cpuMarks, m)
	}
	return nil
}

// cpu reads the CPU time of the system under test by role.
func (p *pass) cpu() (map[string]time.Duration, error) {
	if len(p.procs) == 0 {
		return map[string]time.Duration{"self": selfCPUTime()}, nil
	}
	out := map[string]time.Duration{}
	for i, pr := range p.procs {
		t, err := schedCPU(pr.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[[]string{"shard", "route"}[i]] = t
	}
	return out, nil
}

// collect reads the system's own books and memory after the phases.
func (p *pass) collect() error {
	var err error
	switch {
	case p.w.inProcess:
		m := p.fleet.Metrics()
		p.shardMetrics = map[string]float64{
			"edgedrift_streams":       float64(m.Streams),
			"edgedrift_samples_total": float64(m.Samples),
			"edgedrift_memory_bytes":  float64(m.MemoryBytes),
		}
	case p.host != hostProcs:
		var buf bytes.Buffer
		if err := p.srv.WriteMetrics(&buf); err != nil {
			return err
		}
		if p.shardMetrics, err = parseExposition(&buf); err != nil {
			return err
		}
		if p.rt != nil {
			buf.Reset()
			if err := p.rt.WriteMetrics(&buf); err != nil {
				return err
			}
			if p.routeMetrics, err = parseExposition(&buf); err != nil {
				return err
			}
		}
	default:
		if p.shardMetrics, err = scrape(p.procs[0].metricsAddr); err != nil {
			return err
		}
		if len(p.procs) > 1 {
			if p.routeMetrics, err = scrape(p.procs[1].metricsAddr); err != nil {
				return err
			}
		}
	}
	p.memBytes = p.shardMetrics["edgedrift_memory_bytes"]
	p.streams = p.shardMetrics["edgedrift_streams"]
	return nil
}

// readRSS records the peak resident set of the system under test. It is
// read after the fixed-rate phases, whose work does not depend on the
// host's speed (drift-churn's fleet grows with every sample sent). In
// process it is the growth of this process's peak over its resident
// set when the final set-up began.
func (p *pass) readRSS() error {
	if len(p.procs) == 0 {
		b, err := vmHWM(0)
		p.rssBytes, p.rssProcs = b-p.rssBase, 1
		return err
	}
	p.rssBytes, p.rssProcs = 0, 0
	for _, pr := range p.procs {
		b, err := vmHWM(pr.cmd.Process.Pid)
		if err != nil {
			return err
		}
		p.rssBytes += b
		p.rssProcs++
	}
	return nil
}

// probeHash is the reference result hash of s's first n samples,
// processed as one batch by a fresh template clone.
func probeHash(tmpl []byte, s *streamSpec, n int) (uint64, error) {
	mon, err := cloneTemplate(tmpl)
	if err != nil {
		return 0, err
	}
	rs := mon.ProcessBatch(nil, s.batchAt(nil, 0, n))
	return resultHash(rs), nil
}

// verify replays every stream instance's acked batches, in order and
// with the same batch boundaries, through a fresh template clone and
// counts the samples whose results are not bit-identical to the acks.
// Shed and failed batches were never processed and are skipped.
// corrupt flips one reference result, to prove the gate trips.
func verify(ds *dataset, tmpl []byte, recs []*batchRec, corrupt bool) (mismatched, checked int, err error) {
	groups := map[[2]int][]*batchRec{}
	for _, r := range recs {
		k := [2]int{r.slot, r.gen}
		groups[k] = append(groups[k], r)
	}
	keys := make([][2]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	work := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var xs [][]float64
			var rs []core.Result
			for ki := range work {
				k := keys[ki]
				g := groups[k]
				sort.Slice(g, func(i, j int) bool { return g[i].seq < g[j].seq })
				spec := ds.stream(k[0], k[1])
				mon, err := cloneTemplate(tmpl)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					continue
				}
				bad, n := 0, 0
				for _, r := range g {
					if r.status != acked {
						continue
					}
					xs = spec.batchAt(xs, r.start, r.n)
					rs = mon.ProcessBatch(rs[:0], xs)
					if corrupt && ki == 0 && n == 0 {
						rs[0].Score = -rs[0].Score - 1
					}
					n += r.n
					if resultHash(rs) != r.hash {
						bad += r.n
					}
				}
				mu.Lock()
				mismatched += bad
				checked += n
				mu.Unlock()
			}
		}()
	}
	for i := range keys {
		work <- i
	}
	close(work)
	wg.Wait()
	return mismatched, checked, firstErr
}
