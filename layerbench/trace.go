package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"edgedrift"
	"edgedrift/internal/health"
	"edgedrift/internal/wire"
)

// Tracing records spans at the layer seams the program exposes, from
// the benchmark's own code: wrapped listeners in front of the shard and
// router servers, and a batch-stage wrapper registered in the shard's
// fleet. All spans of one batch share its (stream, seq) key: seq is the
// batch's index within its stream, which every layer observes in the
// same order because the protocol is strictly FIFO per stream.

// spanKey identifies one batch across layers.
type spanKey struct {
	stream string
	seq    int
}

// batchSpans are the boundary timestamps of one batch, in nanoseconds
// since the tracer's base; 0 means the batch never crossed that seam.
type batchSpans struct {
	phase                 int8
	due, acked            int64 // loadgen: due time, ack received
	routerIn, routerOut   int64 // router: batch read, reply written
	shardIn, shardOut     int64 // shard: batch read, reply written
	computeIn, computeOut int64 // fleet stage: ProcessBatch start, end
}

// tracer holds every span in memory until the run ends.
type tracer struct {
	base time.Time

	mu      sync.Mutex
	batches map[spanKey]*batchSpans
	seqs    map[string]int // per (layer/direction/stream) batch counter
	accepts map[string]int // connections accepted per layer
}

func newTracer() *tracer {
	return &tracer{
		base:    time.Now(),
		batches: map[spanKey]*batchSpans{},
		seqs:    map[string]int{},
		accepts: map[string]int{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// at returns the record for key, creating it. Caller holds t.mu.
func (t *tracer) at(k spanKey) *batchSpans {
	b := t.batches[k]
	if b == nil {
		b = &batchSpans{}
		t.batches[k] = b
	}
	return b
}

// frame records a frame seen at a wrapped seam. The seq is counted per
// seam, direction and stream, which is the batch's index in its stream.
func (t *tracer) frame(layer string, out bool, typ byte, stream string, ts int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := "in"
	if out {
		dir = "out"
	}
	ck := layer + "/" + dir + "/" + stream
	seq := t.seqs[ck]
	t.seqs[ck] = seq + 1
	b := t.at(spanKey{stream, seq})
	switch {
	case layer == "shard" && !out:
		b.shardIn = ts
	case layer == "shard":
		b.shardOut = ts
	case !out:
		b.routerIn = ts
	default:
		b.routerOut = ts
	}
}

func (t *tracer) compute(stream string, seq int, start, end int64) {
	t.mu.Lock()
	b := t.at(spanKey{stream, seq})
	b.computeIn, b.computeOut = start, end
	t.mu.Unlock()
}

func (t *tracer) loadgen(stream string, seq int, phase int8, due, acked int64) {
	t.mu.Lock()
	b := t.at(spanKey{stream, seq})
	b.phase, b.due, b.acked = phase, due, acked
	t.mu.Unlock()
}

// span is one interval of a batch at one layer; parent names the span
// that caused it.
type span struct {
	name, parent string
	start, end   int64
}

func (s span) dur() int64 { return s.end - s.start }

// spans expands a batch's timestamps into its span tree.
func (b *batchSpans) spans() []span {
	var out []span
	add := func(name, parent string, s, e int64) {
		if s > 0 && e >= s {
			out = append(out, span{name, parent, s, e})
		}
	}
	add("loadgen.batch", "", b.due, b.acked)
	add("router.relay", "loadgen.batch", b.routerIn, b.routerOut)
	shardParent := "router.relay"
	if b.routerIn == 0 {
		shardParent = "loadgen.batch"
	}
	add("shard.serve", shardParent, b.shardIn, b.shardOut)
	add("shard.queue_wait", "shard.serve", b.shardIn, b.computeIn)
	computeParent := "shard.serve"
	if b.shardIn == 0 {
		computeParent = "loadgen.batch"
	}
	add("fleet.compute", computeParent, b.computeIn, b.computeOut)
	add("shard.ack_write", "shard.serve", b.computeOut, b.shardOut)
	return out
}

// selfTime is parent's duration minus the part of its interval that
// its children cover (overlapping children are counted once).
func selfTime(parent span, children []span) int64 {
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, v := range ivs {
		if v.s > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = v.s, v.e
		} else if v.e > curE {
			curE = v.e
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// selfOf returns the self time of the named span within spans, whose
// children are the spans naming it as parent; ok is false when the
// batch has no such span.
func selfOf(spans []span, name string) (int64, bool) {
	for _, p := range spans {
		if p.name != name {
			continue
		}
		var kids []span
		for _, c := range spans {
			if c.parent == name {
				kids = append(kids, c)
			}
		}
		return selfTime(p, kids), true
	}
	return 0, false
}

// writeSpans writes every span as tab-separated text: stream, seq,
// phase, span, parent, start_ns, end_ns.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]spanKey, 0, len(t.batches))
	for k := range t.batches {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stream != keys[j].stream {
			return keys[i].stream < keys[j].stream
		}
		return keys[i].seq < keys[j].seq
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "stream\tseq\tphase\tspan\tparent\tstart_ns\tend_ns")
	for _, k := range keys {
		b := t.batches[k]
		for _, s := range b.spans() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t%d\t%d\n", k.stream, k.seq, b.phase, s.name, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedListener wraps the listener handed to a server's Serve so every
// accepted connection reports the frames crossing it.
type tracedListener struct {
	net.Listener
	tr    *tracer
	layer string
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.tr.mu.Lock()
	l.tr.accepts[l.layer]++
	l.tr.mu.Unlock()
	tc := &tracedConn{Conn: c}
	tc.in = frameScanner{emit: func(typ byte, stream string) { l.tr.frame(l.layer, false, typ, stream, l.tr.now()) }}
	tc.out = frameScanner{emit: func(typ byte, stream string) { l.tr.frame(l.layer, true, typ, stream, l.tr.now()) }}
	return tc, nil
}

// tracedConn feeds the bytes it reads and writes to frame scanners.
// A server reads and writes a connection from different goroutines, but
// each direction from one at a time, so each scanner has one user.
type tracedConn struct {
	net.Conn
	in, out frameScanner
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n])
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n])
	return n, err
}

// frameScanner follows the wire framing (u32 length, type byte,
// payload) of one byte stream and reports each completed batch-carrying
// frame with the stream name its payload starts with.
type frameScanner struct {
	emit func(typ byte, stream string)

	hdr    [7]byte // length, type, stream-name length
	nhdr   int
	left   int // payload bytes still to consume after the header
	typ    byte
	stream []byte
	want   int // stream-name bytes still wanted
}

func (s *frameScanner) feed(p []byte) {
	for len(p) > 0 {
		if s.nhdr < 5 || (s.carriesStream() && s.nhdr < 7) {
			s.hdr[s.nhdr] = p[0]
			s.nhdr++
			p = p[1:]
			if s.nhdr == 5 {
				s.typ = s.hdr[4]
				s.left = int(binary.LittleEndian.Uint32(s.hdr[:4])) - 1
				s.stream = s.stream[:0]
				if !s.carriesStream() {
					s.maybeDone()
				}
			} else if s.nhdr == 7 {
				s.want = int(binary.LittleEndian.Uint16(s.hdr[5:7]))
				s.left -= 2
				s.maybeDone()
			}
			continue
		}
		if s.want > 0 {
			n := min(s.want, len(p))
			s.stream = append(s.stream, p[:n]...)
			s.want -= n
			s.left -= n
			p = p[n:]
			s.maybeDone()
			continue
		}
		n := min(s.left, len(p))
		s.left -= n
		p = p[n:]
		s.maybeDone()
	}
}

func (s *frameScanner) carriesStream() bool {
	switch s.typ {
	case wire.TypeBatch, wire.TypeBatchAck, wire.TypeShed:
		return s.nhdr >= 5
	}
	return false
}

// maybeDone closes the current frame once all its bytes are consumed.
func (s *frameScanner) maybeDone() {
	if s.left > 0 || s.want > 0 {
		return
	}
	if s.carriesStream() {
		s.emit(s.typ, string(s.stream))
	}
	s.nhdr = 0
}

// tracedStage is the batch stage registered for each stream in the
// traced run: it clones the template on its first batch (as the shard
// does for an unseen stream) and times every ProcessBatch call.
type tracedStage struct {
	id   string
	tmpl []byte
	tr   *tracer
	mon  *edgedrift.Monitor
	seq  int
}

var _ edgedrift.BatchStreaming = (*tracedStage)(nil)

func (s *tracedStage) ensure() {
	if s.mon != nil {
		return
	}
	mon, err := cloneTemplate(s.tmpl)
	if err != nil {
		// The template was validated at set-up; a failing clone here is
		// a benchmark bug.
		panic(fmt.Sprintf("layerbench: clone template: %v", err))
	}
	s.mon = mon
}

func (s *tracedStage) ProcessBatch(dst []edgedrift.Result, xs [][]float64) []edgedrift.Result {
	start := s.tr.now()
	s.ensure()
	dst = s.mon.ProcessBatch(dst, xs)
	s.tr.compute(s.id, s.seq, start, s.tr.now())
	s.seq++
	return dst
}

func (s *tracedStage) Process(x []float64) edgedrift.Result {
	s.ensure()
	return s.mon.Process(x)
}

func (s *tracedStage) MemoryBytes() int {
	if s.mon == nil {
		return 0
	}
	return s.mon.MemoryBytes()
}

func (s *tracedStage) Health() health.Snapshot {
	if s.mon == nil {
		return health.Snapshot{}
	}
	return s.mon.Health()
}

// discardLogf silences in-process server logs in the traced run.
func discardLogf(string, ...any) {}
