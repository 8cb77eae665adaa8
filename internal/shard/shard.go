// Package shard is the per-process half of the distributed serve tier:
// a TCP server speaking the wire batch-ingest protocol in front of one
// edgedrift.Fleet. A deployment runs N shard processes behind the
// consistent-hash router (internal/router); each shard owns a disjoint
// subset of the streams and lands every Batch frame directly in the
// fleet's ProcessBatch GEMM path.
//
// Ingest is bounded: each connection gets a reader goroutine, a bounded
// job queue, and one worker goroutine draining it in FIFO order (per
// -connection arrival order is the per-stream order contract, exactly
// as with a local fleet). When the queue is full the shed policy
// decides between backpressure (block the reader — TCP pushes back to
// the sender) and load-shedding (drop the batch at admission, tell the
// client with a Shed frame, count it). Shedding never drops silently:
// a shed batch is never processed, so sent == processed + shed holds
// exactly — the accounting layerbench's load generator asserts.
//
// A batch runs to completion on the reader itself, skipping the
// hand-off to the worker, when two conditions hold: the worker has no
// admitted batch left unanswered (a per-connection pending count that
// only the reader increments, so zero means nothing is ahead of the
// batch), and no further input is buffered behind it. Order is
// therefore FIFO across both paths, and a burst — input already
// waiting — still goes through the queue and still sheds. The inline
// path decodes into a reused buffer and interns stream names, so a
// steady-state batch allocates nothing.
//
// Streams are created on first use by cloning the shard's template
// artifact, so the router can place new streams anywhere without a
// control round-trip. A shard serves exactly its template's input
// dimension: a batch of another dimension is answered with an Error
// frame before any stream is created, and the connection keeps
// serving. Live migration is the fleet member handoff over
// the wire: MigrateOut exports the member (sample-boundary snapshot,
// CRC-checksummed payload) and tombstones the stream so a late batch
// cannot silently respawn a fresh member; MigrateIn imports it with
// lifetime counters carried over.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edgedrift"
	"edgedrift/internal/metrics"
	"edgedrift/internal/pressure"
	"edgedrift/internal/wire"
)

// Config parameterises a shard server.
type Config struct {
	// Template is a serialised Monitor artifact (Monitor.Save) cloned
	// for every stream the shard has not seen before. Required.
	Template []byte
	// Precision selects the member backend built from the template:
	// Float64/Float32 register the loaded Monitor as-is (the artifact's
	// own backend governs), Fixed16 quantises it to a Q16.16 stage.
	Precision edgedrift.Precision
	// QueueDepth bounds each connection's ingest queue in batches;
	// 0 means 64.
	QueueDepth int
	// ShedAfter is the admission policy when a connection's queue is
	// full: 0 blocks the reader until space frees (pure backpressure —
	// TCP flow control pushes back to the sender), > 0 waits that long
	// and then sheds the batch, < 0 sheds immediately.
	ShedAfter time.Duration
	// Cohort, when set, registers every member this shard creates or
	// imports into that cooperation cohort, making its streams eligible
	// for warm recovery and cross-shard state exchange (all clones of
	// one template artifact share a merge fingerprint by construction).
	// Requires mergeable members: incompatible with Precision Fixed16.
	Cohort string
	// Fleet configures the shard's fleet.
	Fleet edgedrift.FleetConfig
	// Pressure, when non-nil, runs the adaptive capacity governor over
	// this shard's fleet: every PressureInterval the shard samples its
	// p99 batch-ingest latency and retained memory and feeds one
	// governor tick, demoting the coldest members under sustained
	// budget pressure and promoting them back when it clears (see
	// internal/pressure for the hysteresis contract).
	Pressure *pressure.Config
	// PressureInterval is the governor tick period; 0 means 500ms.
	PressureInterval time.Duration
	// Logf receives shard lifecycle logs; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Server is one shard process's ingest server.
type Server struct {
	cfg    Config
	fleet  *edgedrift.Fleet
	ln     net.Listener
	inputs int // the template's sample dimension, the only one served

	mu         sync.Mutex
	tombstones map[string]bool // migrated-out streams: never auto-recreate

	closed atomic.Bool
	wg     sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	batches       metrics.Counter
	shedSamples   metrics.Counter
	shedBatches   metrics.Counter
	migratedIn    metrics.Counter
	migratedOut   metrics.Counter
	mergeFetches  metrics.Counter
	mergeSeeds    metrics.Counter
	ingestLatency metrics.Histogram // per-batch ProcessBatch wall time, ns
	queueDepth    atomic.Int64      // queued batches across all connections
	connections   atomic.Int64

	govMu   sync.Mutex // guards gov (Tick vs Metrics scrapes)
	gov     *pressure.Governor
	govStop chan struct{}
}

// New builds a shard server (not yet listening; call Serve).
func New(cfg Config) (*Server, error) {
	if len(cfg.Template) == 0 {
		return nil, errors.New("shard: config needs a template artifact")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Cohort != "" && cfg.Precision == edgedrift.Fixed16 {
		return nil, errors.New("shard: cohort requires mergeable members; Q16.16 detect-only members cannot cooperate")
	}
	s := &Server{
		cfg:        cfg,
		fleet:      edgedrift.NewFleet(cfg.Fleet),
		tombstones: map[string]bool{},
		conns:      map[net.Conn]struct{}{},
	}
	// Validate the template once up front so a bad artifact fails at
	// startup, not on the first stream.
	st, err := s.newMember()
	if err != nil {
		return nil, fmt.Errorf("shard: bad template: %w", err)
	}
	s.inputs = st.(interface{ Inputs() int }).Inputs()
	if cfg.Pressure != nil {
		interval := cfg.PressureInterval
		if interval <= 0 {
			interval = 500 * time.Millisecond
		}
		s.gov = pressure.New(*cfg.Pressure, s.fleet)
		s.govStop = make(chan struct{})
		s.wg.Add(1)
		go s.governorLoop(interval)
	}
	return s, nil
}

// governorLoop drives the pressure governor: each tick samples the
// shard's p99 ingest latency and retained memory and lets the governor
// decide. The governor itself is clock-free — this loop is the only
// place wall time enters the control path.
func (s *Server) governorLoop(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	var prev metrics.HistogramSnapshot
	for {
		select {
		case <-s.govStop:
			return
		case <-t.C:
			// Windowed p99: the lifetime histogram diffed against the
			// previous tick, so cleared pressure actually reads as
			// cleared (an idle window reads 0).
			cur := s.ingestLatency.Snapshot()
			win := cur.Delta(prev)
			prev = cur
			sample := pressure.Sample{
				P99Ns:       win.Quantile(0.99),
				MemoryBytes: s.fleet.MemoryBytes(),
			}
			s.govMu.Lock()
			act := s.gov.Tick(sample)
			s.govMu.Unlock()
			switch act.Kind {
			case pressure.Demote:
				s.cfg.Logf("shard: governor demoted %q (p99 %dns, %d bytes retained)", act.Stream, sample.P99Ns, sample.MemoryBytes)
			case pressure.Promote:
				s.cfg.Logf("shard: governor promoted %q (pressure cleared)", act.Stream)
			}
		}
	}
}

// Fleet exposes the shard's fleet (metrics, health, tests).
func (s *Server) Fleet() *edgedrift.Fleet { return s.fleet }

// newMember clones the template into a fresh member stage.
func (s *Server) newMember() (edgedrift.Streaming, error) {
	mon, err := edgedrift.LoadMonitor(bytes.NewReader(s.cfg.Template))
	if err != nil {
		return nil, err
	}
	if s.cfg.Precision == edgedrift.Fixed16 {
		return mon.QuantizeQ16()
	}
	return mon, nil
}

// ensureStream registers a member for an unseen stream, cloning the
// template. Returns an error for tombstoned (migrated-out) streams.
func (s *Server) ensureStream(stream string) error {
	s.mu.Lock()
	if s.tombstones[stream] {
		s.mu.Unlock()
		return fmt.Errorf("shard: stream %q migrated out", stream)
	}
	s.mu.Unlock()
	st, err := s.newMember()
	if err != nil {
		return err
	}
	if s.cfg.Cohort != "" {
		mon, ok := st.(*edgedrift.Monitor)
		if !ok {
			return fmt.Errorf("shard: stream %q: cohort %q requires a mergeable member", stream, s.cfg.Cohort)
		}
		err = s.fleet.AddCohort(stream, mon, s.cfg.Cohort)
	} else {
		err = s.fleet.AddStage(stream, st)
	}
	if err != nil && isAlreadyRegistered(err) {
		return nil // lost a create race; the member exists
	}
	return err
}

// isAlreadyRegistered matches the fleet's duplicate-Add error.
func isAlreadyRegistered(err error) bool {
	return err != nil && strings.Contains(err.Error(), "already registered")
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error (net.ErrClosed after a clean Close).
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	if s.closed.Load() { // Close raced ahead of us
		ln.Close()
		return net.ErrClosed
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return net.ErrClosed
			}
			return err
		}
		s.connMu.Lock()
		s.conns[nc] = struct{}{}
		s.connMu.Unlock()
		s.connections.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, nc)
				s.connMu.Unlock()
				s.connections.Add(-1)
				nc.Close()
			}()
			s.serveConn(wire.NewConn(nc))
		}()
	}
}

// Close stops accepting, closes every live connection and waits for
// the per-connection goroutines to drain.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.govStop != nil {
		close(s.govStop)
	}
	var err error
	s.connMu.Lock()
	if s.ln != nil {
		err = s.ln.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// job is one admitted batch: the decoded samples (job-owned — the
// frame buffer is reused by the reader) and the stream they belong to.
type job struct {
	stream string
	xs     [][]float64
}

// ingest is one connection's batch path: the bounded queue its worker
// drains, and the count of admitted batches the worker has not yet
// answered. Only the reader increments pending (on admission), so
// pending == 0 seen by the reader means no batch of this connection is
// queued or being processed.
type ingest struct {
	c       *wire.Conn
	jobs    chan job
	pending atomic.Int64
}

// batchBuf is the scratch one goroutine reuses across the batches it
// answers.
type batchBuf struct {
	results []edgedrift.Result
	ack     []byte
}

// serveConn runs one connection: handshake, then the reader loop. A
// batch runs to completion on the reader when the worker has nothing
// unanswered and no further input is buffered; otherwise it is admitted
// (or shed) into the bounded queue drained by one worker goroutine.
// Control frames (stats, migration) are answered inline — the router
// fences migrations so no batch for the moving stream is in flight
// anywhere when MigrateOut arrives.
func (s *Server) serveConn(c *wire.Conn) {
	if err := c.AcceptHandshake(); err != nil {
		return
	}
	in := &ingest{c: c, jobs: make(chan job, s.cfg.QueueDepth)}
	var workerWg sync.WaitGroup
	workerWg.Add(1)
	go func() {
		defer workerWg.Done()
		s.worker(in)
	}()
	defer func() {
		close(in.jobs)
		workerWg.Wait()
	}()

	// Reader-owned: stream names seen on this connection, and the decode
	// buffer and scratch of the batches run inline.
	var (
		names wire.Names
		xs    [][]float64
		buf   batchBuf
	)
	for {
		typ, p, err := c.ReadFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.closed.Load() {
				s.cfg.Logf("shard: connection error: %v", err)
			}
			return
		}
		switch typ {
		case wire.TypeBatch:
			b, err := names.ParseBatch(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			if in.pending.Load() == 0 && c.Buffered() == 0 {
				// Run to completion: nothing of this connection is ahead
				// of the batch and nothing is waiting behind it.
				xs = b.Decode(xs)
				if !s.serveBatch(c, &buf, b.Stream, xs) {
					return
				}
				continue
			}
			if !s.admit(in, job{stream: b.Stream, xs: b.Decode(nil)}) {
				return
			}
		case wire.TypeMigrateOut:
			stream, err := parseStreamOnly(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			s.migrateOut(c, stream)
		case wire.TypeMigrateIn:
			st, err := wire.ParseState(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			s.migrateIn(c, st)
		case wire.TypeFetchState:
			stream, err := parseStreamOnly(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			s.fetchState(c, stream)
		case wire.TypeMergeState:
			ms, err := wire.ParseMergeStates(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			s.mergeSeed(c, ms)
		case wire.TypeStats:
			c.WriteFrame(wire.TypeStatsReply, wire.AppendStats(nil, s.Stats()))
		default:
			c.WriteFrame(wire.TypeError, []byte(fmt.Sprintf("unexpected frame type %#x", typ)))
			return
		}
	}
}

// admit enqueues a batch under the shed policy. Returns false only on
// a write failure (connection is dead).
func (s *Server) admit(in *ingest, j job) bool {
	in.pending.Add(1)
	// Fast path: space available.
	select {
	case in.jobs <- j:
		s.queueDepth.Add(1)
		return true
	default:
	}
	if s.cfg.ShedAfter == 0 {
		// Pure backpressure: block the reader; TCP flow control stalls
		// the sender until the worker catches up.
		in.jobs <- j
		s.queueDepth.Add(1)
		return true
	}
	if s.cfg.ShedAfter > 0 {
		t := time.NewTimer(s.cfg.ShedAfter)
		defer t.Stop()
		select {
		case in.jobs <- j:
			s.queueDepth.Add(1)
			return true
		case <-t.C:
		}
	}
	// Shed: the batch is dropped at admission, never processed.
	in.pending.Add(-1)
	s.shedBatches.Inc()
	s.shedSamples.Add(uint64(len(j.xs)))
	return in.c.WriteFrame(wire.TypeShed, wire.AppendShed(nil, j.stream, len(j.xs))) == nil
}

// worker drains one connection's queue in FIFO order: per-connection
// arrival order is the per-stream sample order, as with a local fleet.
func (s *Server) worker(in *ingest) {
	var buf batchBuf
	for j := range in.jobs {
		s.queueDepth.Add(-1)
		ok := s.serveBatch(in.c, &buf, j.stream, j.xs)
		in.pending.Add(-1) // after the answer is written: FIFO on the wire
		if !ok {
			return
		}
	}
}

// serveBatch processes one batch through the fleet and answers it with
// an ack (or an error frame), reusing buf. It is the one batch path of
// both the reader's inline run and the worker. Returns false when the
// connection is dead.
func (s *Server) serveBatch(c *wire.Conn, buf *batchBuf, stream string, xs [][]float64) bool {
	if len(xs[0]) != s.inputs { // a parsed batch has rows of one length
		msg := fmt.Sprintf("shard: stream %q: sample dimension %d, want %d", stream, len(xs[0]), s.inputs)
		return c.WriteFrame(wire.TypeError, []byte(msg)) == nil
	}
	start := time.Now()
	results, err := s.fleet.ProcessBatchInto(buf.results[:0], stream, xs)
	if err != nil {
		// Unknown stream: first sight — clone the template and retry.
		if cerr := s.ensureStream(stream); cerr != nil {
			return c.WriteFrame(wire.TypeError, []byte(cerr.Error())) == nil
		}
		results, err = s.fleet.ProcessBatchInto(buf.results[:0], stream, xs)
		if err != nil {
			return c.WriteFrame(wire.TypeError, []byte(err.Error())) == nil
		}
	}
	buf.results = results
	s.batches.Inc()
	s.ingestLatency.Observe(uint64(time.Since(start)))
	buf.ack = wire.AppendResults(buf.ack[:0], stream, results)
	return c.WriteFrame(wire.TypeBatchAck, buf.ack) == nil
}

// migrateOut exports a member and tombstones the stream.
func (s *Server) migrateOut(c *wire.Conn, stream string) {
	st, err := s.fleet.ExportMember(stream)
	if err != nil {
		c.WriteFrame(wire.TypeError, []byte(err.Error()))
		return
	}
	s.mu.Lock()
	s.tombstones[stream] = true
	s.mu.Unlock()
	s.migratedOut.Inc()
	c.WriteFrame(wire.TypeState, wire.AppendState(nil, wire.State{
		Stream:  stream,
		Kind:    st.Kind,
		Samples: st.Samples,
		Drifts:  st.Drifts,
		Payload: st.Payload,
	}))
}

// migrateIn imports a member exported by another shard; one of another
// input dimension is refused. The wire State frame does not carry a
// cohort — the member joins this shard's configured cohort (cohort
// membership is a placement property, and the router co-locates a
// cohort's shards by configuration).
func (s *Server) migrateIn(c *wire.Conn, st wire.State) {
	err := s.fleet.ImportMember(&edgedrift.MemberState{
		ID:      st.Stream,
		Kind:    st.Kind,
		Cohort:  s.cfg.Cohort,
		Samples: st.Samples,
		Drifts:  st.Drifts,
		Payload: append([]byte(nil), st.Payload...),
	}, s.inputs)
	if err != nil {
		c.WriteFrame(wire.TypeError, []byte(err.Error()))
		return
	}
	s.mu.Lock()
	delete(s.tombstones, st.Stream) // the stream may return later
	s.mu.Unlock()
	s.migratedIn.Inc()
	c.WriteFrame(wire.TypeMigrateAck, nil)
}

// fetchState exports a member's mergeable model state without
// deregistering it — unlike migrateOut there is no tombstone and the
// member keeps processing; this is the donor half of a cross-shard
// warm recovery.
func (s *Server) fetchState(c *wire.Conn, stream string) {
	state, fprint, err := s.fleet.ExportMergeState(stream)
	if err != nil {
		c.WriteFrame(wire.TypeError, []byte(err.Error()))
		return
	}
	s.mergeFetches.Inc()
	c.WriteFrame(wire.TypeMergeState, wire.AppendMergeStates(nil, wire.MergeStates{
		Stream:      stream,
		Fingerprint: fprint,
		States:      [][]byte{state},
	}))
}

// mergeSeed replaces a local member's model with the closed-form merge
// of the delivered peer states (the recovery half of a cross-shard warm
// recovery). A non-zero fingerprint in the frame must match the target
// member's — a cross-fleet topology mismatch fails loudly before any
// state is touched.
func (s *Server) mergeSeed(c *wire.Conn, ms wire.MergeStates) {
	if ms.Fingerprint != 0 {
		got, err := s.fleet.MemberFingerprint(ms.Stream)
		if err != nil {
			c.WriteFrame(wire.TypeError, []byte(err.Error()))
			return
		}
		if got != ms.Fingerprint {
			c.WriteFrame(wire.TypeError, []byte(fmt.Sprintf(
				"shard: stream %q fingerprint %#x does not match seed fingerprint %#x", ms.Stream, got, ms.Fingerprint)))
			return
		}
	}
	if err := s.fleet.MergeSeedMember(ms.Stream, ms.States); err != nil {
		c.WriteFrame(wire.TypeError, []byte(err.Error()))
		return
	}
	s.mergeSeeds.Inc()
	c.WriteFrame(wire.TypeMergeAck, nil)
}

// Stats snapshots the shard's counters for the wire Stats reply.
func (s *Server) Stats() wire.Stats {
	m := s.fleet.Metrics()
	qd := s.queueDepth.Load()
	if qd < 0 {
		qd = 0
	}
	return wire.Stats{
		Streams:            uint32(m.Streams),
		Samples:            m.Samples,
		Drifts:             m.Drifts,
		Batches:            s.batches.Load(),
		ShedSamples:        s.shedSamples.Load(),
		ShedBatches:        s.shedBatches.Load(),
		MigratedIn:         s.migratedIn.Load(),
		MigratedOut:        s.migratedOut.Load(),
		QueueDepth:         uint32(qd),
		Degraded:           uint32(m.Degraded),
		Demotions:          m.Demotions,
		Promotions:         m.Promotions,
		TransitionFailures: m.TransitionFailures,
		IngestP99Ns:        s.ingestLatency.Quantile(0.99),
	}
}

// WriteMetrics renders the shard's Prometheus exposition: the fleet's
// full roll-up plus the shard-level ingest families.
func (s *Server) WriteMetrics(w io.Writer) error {
	if err := s.fleet.WriteMetrics(w); err != nil {
		return err
	}
	tw := metrics.NewTextWriter(w)
	tw.Counter("edgedrift_shard_batches_total", "Batches processed by this shard.", nil, s.batches.Load())
	tw.Counter("edgedrift_shard_shed_batches_total", "Batches dropped at admission (queue full past the shed deadline).", nil, s.shedBatches.Load())
	tw.Counter("edgedrift_shard_shed_samples_total", "Samples inside shed batches (never processed).", nil, s.shedSamples.Load())
	tw.Counter("edgedrift_shard_migrations_in_total", "Streams imported via live migration.", nil, s.migratedIn.Load())
	tw.Counter("edgedrift_shard_migrations_out_total", "Streams exported via live migration.", nil, s.migratedOut.Load())
	tw.Counter("edgedrift_shard_merge_fetches_total", "Mergeable model states served to peers (cross-shard recovery donors).", nil, s.mergeFetches.Load())
	tw.Counter("edgedrift_shard_merge_seeds_total", "Members re-seeded from peer merge states (cross-shard recovery targets).", nil, s.mergeSeeds.Load())
	tw.Gauge("edgedrift_shard_queue_depth", "Batches queued across all ingest connections.", nil, float64(s.queueDepth.Load()))
	tw.Gauge("edgedrift_shard_connections", "Live ingest connections.", nil, float64(s.connections.Load()))
	if lat := s.ingestLatency.Snapshot(); lat.Count > 0 {
		tw.Histogram("edgedrift_shard_ingest_latency_seconds", "Per-batch fleet ProcessBatch wall time.", nil, lat, 1e-9)
	}
	if s.gov != nil {
		s.govMu.Lock()
		gm := s.gov.Metrics()
		s.govMu.Unlock()
		tw.Counter("edgedrift_shard_governor_ticks_total", "Pressure-governor control-loop ticks.", nil, gm.Ticks)
		tw.Counter("edgedrift_shard_governor_over_budget_total", "Ticks with at least one pressure axis over budget.", nil, gm.OverBudget)
		tw.Counter("edgedrift_shard_governor_demotions_total", "Members demoted by the governor.", nil, gm.Demotions)
		tw.Counter("edgedrift_shard_governor_promotions_total", "Members promoted back by the governor.", nil, gm.Promotions)
		tw.Counter("edgedrift_shard_governor_errors_total", "Transitions the fleet refused to the governor.", nil, gm.Errors)
		tw.Gauge("edgedrift_shard_governor_demoted", "Members currently demoted by the governor.", nil, float64(gm.Demoted))
	}
	return tw.Err()
}

// MetricsHandler serves WriteMetrics over HTTP (the /metrics endpoint).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// parseStreamOnly parses a payload that is exactly one stream name.
func parseStreamOnly(p []byte) (string, error) {
	stream, rest, err := wire.ParseStream(p)
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("wire: %d trailing bytes after stream name", len(rest))
	}
	return stream, nil
}
