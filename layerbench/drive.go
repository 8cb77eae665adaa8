package main

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"edgedrift"
	"edgedrift/internal/core"
	"edgedrift/internal/wire"
)

// Batch phases, in run order.
const (
	phaseSetup int8 = iota
	phaseWarm
	phaseOpen
	phaseClosed
)

// Batch outcomes.
const (
	pending int8 = iota
	acked
	shed
	failed
)

// batchRec is the loadgen's ledger entry for one batch.
type batchRec struct {
	id             string
	slot, gen, seq int // stream instance and the batch's index in it
	start, n       int // sample range within the stream
	phase          int8
	status         int8
	windowed       bool  // holds a closed-loop window slot
	due, sent      int64 // ns since the driver's base
	done           int64 // ack (or shed/error reply) received
	hash           uint64
}

// instStats are one stream instance's outcomes, read from its results.
type instStats struct {
	spec       *streamSpec
	samples    int   // acked samples
	detections []int // sample indices with DriftDetected
	recon      int   // acked samples in the Reconstructing phase
	correct    int   // labelled samples predicted right
	labelled   int
}

// slotState is one live stream slot: the current instance and how far
// the loadgen has sent it.
type slotState struct {
	slot, gen, pos, seq int
	spec                *streamSpec
}

// driver pushes a workload's batches at the system under test, either
// over wire connections or straight into an in-process fleet.
type driver struct {
	w     workload
	ds    *dataset
	base  time.Time
	tr    *tracer                      // nil in untraced runs
	onNew func(spec *streamSpec) error // registers a stream before its first batch

	conns []*connDriver

	mu    sync.Mutex
	insts map[[2]int]*instStats
}

// connDriver drives one loadgen connection (or, in process, the single
// synchronous caller) and the stream slots assigned to it.
type connDriver struct {
	d        *driver
	c        *wire.Conn       // served
	fleet    *edgedrift.Fleet // in process
	slots    []*slotState
	next     int
	recs     []*batchRec
	fifo     chan *batchRec // sent, awaiting reply, in send order
	window   chan struct{}  // closed-loop in-flight bound
	inflight sync.WaitGroup
	recvDone chan struct{}
	recvErr  error

	payload []byte
	xs      [][]float64
	rs      []core.Result
}

func newDriver(w workload, ds *dataset, tr *tracer) *driver {
	base := time.Now()
	if tr != nil {
		base = tr.base
	}
	return &driver{w: w, ds: ds, base: base, tr: tr, insts: map[[2]int]*instStats{}}
}

func (d *driver) now() int64 { return int64(time.Since(d.base)) }

// fifoCap bounds the batches a connection may have sent but not yet
// seen answered; at the open-loop rates it covers seconds of backlog.
const fifoCap = 1 << 15

// addConn attaches a served connection and starts its receiver.
func (d *driver) addConn(c *wire.Conn) {
	cd := &connDriver{d: d, c: c,
		fifo:     make(chan *batchRec, fifoCap),
		window:   make(chan struct{}, d.w.inFlight),
		recvDone: make(chan struct{}),
	}
	d.conns = append(d.conns, cd)
	go cd.recv()
}

// addFleet attaches the in-process fleet as the single caller.
func (d *driver) addFleet(f *edgedrift.Fleet) {
	d.conns = append(d.conns, &connDriver{d: d, fleet: f})
}

// assignSlots spreads the workload's stream slots over the connections;
// a stream always uses one connection, so its batches stay ordered.
func (d *driver) assignSlots() {
	for s := 0; s < d.w.streams; s++ {
		cd := d.conns[s%len(d.conns)]
		cd.slots = append(cd.slots, &slotState{slot: s})
	}
}

// advance picks the slot's next batch, replacing a retired instance
// with a fresh stream ID.
func (d *driver) advance(sl *slotState) (*streamSpec, int, int, error) {
	if sl.spec == nil || (sl.spec.life > 0 && sl.pos+d.w.batch > sl.spec.life) {
		if sl.spec != nil {
			sl.gen++
		}
		sl.spec = d.ds.stream(sl.slot, sl.gen)
		sl.pos, sl.seq = 0, 0
		d.mu.Lock()
		d.insts[[2]int{sl.slot, sl.gen}] = &instStats{spec: sl.spec}
		d.mu.Unlock()
		if d.onNew != nil {
			if err := d.onNew(sl.spec); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	start, seq := sl.pos, sl.seq
	sl.pos += d.w.batch
	sl.seq++
	return sl.spec, seq, start, nil
}

// send issues the connection's next batch, due at due.
func (cd *connDriver) send(phase int8, due int64, windowed bool) error {
	d := cd.d
	sl := cd.slots[cd.next]
	cd.next = (cd.next + 1) % len(cd.slots)
	spec, seq, start, err := d.advance(sl)
	if err != nil {
		return err
	}
	cd.xs = spec.batchAt(cd.xs, start, d.w.batch)
	rec := &batchRec{id: spec.id, slot: sl.slot, gen: sl.gen, seq: seq,
		start: start, n: d.w.batch, phase: phase, due: due, windowed: windowed}
	cd.recs = append(cd.recs, rec)
	return cd.issue(rec, cd.xs)
}

// issue sends one ledgered batch. In process the call completes it.
func (cd *connDriver) issue(rec *batchRec, xs [][]float64) error {
	d := cd.d
	if cd.fleet != nil {
		rec.sent = d.now()
		var err error
		cd.rs, err = cd.fleet.ProcessBatchInto(cd.rs[:0], rec.id, xs)
		typ := byte(wire.TypeBatchAck)
		if err != nil {
			typ = wire.TypeError
		}
		cd.complete(rec, typ, cd.rs, d.now())
		return nil
	}
	var err error
	cd.payload, err = wire.AppendBatch(cd.payload[:0], rec.id, xs)
	if err != nil {
		return err
	}
	cd.inflight.Add(1)
	rec.sent = d.now()
	cd.fifo <- rec
	return cd.c.WriteFrame(wire.TypeBatch, cd.payload)
}

// recv matches replies to sent batches in FIFO order.
func (cd *connDriver) recv() {
	defer close(cd.recvDone)
	var rs []core.Result
	for {
		typ, p, err := cd.c.ReadFrame()
		if err != nil {
			cd.recvErr = err
			return
		}
		now := cd.d.now()
		var rec *batchRec
		select {
		case rec = <-cd.fifo:
		default:
			cd.recvErr = fmt.Errorf("reply frame %#x with no batch outstanding", typ)
			return
		}
		if typ == wire.TypeBatchAck {
			var stream string
			stream, rs, err = wire.ParseResults(p, rs[:0])
			if err != nil || stream != rec.id || len(rs) != rec.n {
				typ = wire.TypeError
			}
		}
		cd.complete(rec, typ, rs, now)
	}
}

// complete records a batch's reply and releases its window slot.
func (cd *connDriver) complete(rec *batchRec, typ byte, rs []core.Result, now int64) {
	d := cd.d
	rec.done = now
	switch typ {
	case wire.TypeBatchAck:
		rec.status = acked
		rec.hash = resultHash(rs)
		d.observe(rec, rs)
	case wire.TypeShed:
		rec.status = shed
	default:
		rec.status = failed
	}
	if d.tr != nil {
		d.tr.loadgen(rec.id, rec.seq, rec.phase, rec.due, now)
	}
	if rec.windowed {
		<-cd.window
	}
	if cd.fleet == nil {
		cd.inflight.Done()
	}
}

// observe folds a batch's results into its instance's outcomes.
func (d *driver) observe(rec *batchRec, rs []core.Result) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.insts[[2]int{rec.slot, rec.gen}]
	if st == nil {
		return // set-up probe
	}
	st.samples += len(rs)
	for i, r := range rs {
		idx := rec.start + i
		if r.DriftDetected {
			st.detections = append(st.detections, idx)
		}
		if r.Phase == core.Reconstructing {
			st.recon++
		}
		if d.w.labelled {
			if _, y := st.spec.at(idx); r.Label == y {
				st.correct++
			}
			st.labelled++
		}
	}
}

// sleepUntil waits for the driver clock to reach t. Go timers wake at
// millisecond granularity on Linux; nanosleep keeps the open-loop
// schedule within tens of microseconds.
func (d *driver) sleepUntil(t int64) {
	if wait := t - d.now(); wait > 0 {
		ts := syscall.NsecToTimespec(wait)
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// phaseRun runs one phase on every connection at once and waits for
// every reply. rate > 0 paces an open loop at that many samples/s;
// rate == 0 runs closed-loop with the workload's in-flight bound.
func (d *driver) phaseRun(phase int8, dur time.Duration, rate float64) error {
	start := d.now()
	end := start + int64(dur)
	errs := make([]error, len(d.conns))
	var wg sync.WaitGroup
	for i, cd := range d.conns {
		wg.Add(1)
		go func(i int, cd *connDriver) {
			defer wg.Done()
			if rate > 0 {
				interval := float64(d.w.batch*len(d.conns)) / rate * 1e9
				offset := interval * float64(i) / float64(len(d.conns))
				for k := 0; ; k++ {
					due := start + int64(offset+float64(k)*interval)
					if due >= end {
						return
					}
					d.sleepUntil(due)
					if errs[i] = cd.send(phase, due, false); errs[i] != nil {
						return
					}
				}
			}
			for d.now() < end {
				if cd.fleet == nil {
					select {
					case cd.window <- struct{}{}:
					case <-cd.recvDone:
						errs[i] = fmt.Errorf("connection closed: %v", cd.recvErr)
						return
					}
				}
				if errs[i] = cd.send(phase, d.now(), cd.fleet == nil); errs[i] != nil {
					return
				}
			}
		}(i, cd)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return d.drain()
}

// drainTimeout bounds the wait for outstanding replies at a phase end;
// a reply missing after it counts as a missing ack.
const drainTimeout = 30 * time.Second

func (d *driver) drain() error {
	for _, cd := range d.conns {
		done := make(chan struct{})
		go func() {
			cd.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-cd.recvDone:
			return fmt.Errorf("connection closed with replies outstanding: %v", cd.recvErr)
		case <-time.After(drainTimeout):
			return fmt.Errorf("replies still missing after %v", drainTimeout)
		}
	}
	return nil
}

// allRecs returns every ledgered batch of every connection.
func (d *driver) allRecs() []*batchRec {
	var out []*batchRec
	for _, cd := range d.conns {
		out = append(out, cd.recs...)
	}
	return out
}

// closeConns closes the served connections and waits for the receivers.
func (d *driver) closeConns() {
	for _, cd := range d.conns {
		if cd.c != nil {
			cd.c.Close()
			<-cd.recvDone
		}
	}
}
