// Package wire is the binary batch-ingest protocol of the distributed
// serve tier: length-prefixed frames over TCP carrying whole per-stream
// sample batches, their per-sample results, and the checkpoint payloads
// of live stream migrations.
//
// A sample is ~41 float64s, so per-sample framing would drown the
// detector's O(C·D + H²) arithmetic in syscalls and header bytes. Every
// Batch frame therefore carries one stream's whole batch, which the
// shard lands directly in Fleet.ProcessBatch — the GEMM path — and acks
// with one frame of per-sample results. Results echo every field of
// core.Result bit-exactly (scores and distances as IEEE-754 bit
// patterns), which is what lets a client fingerprint a stream across a
// live migration and assert bit-identical continuation.
//
// Frame layout (all integers little-endian):
//
//	u32 length   — byte length of type + payload (≤ MaxFrame)
//	u8  type     — Type* constant
//	...payload
//
// The protocol is strictly request/reply per connection: a client sends
// one frame and reads one reply (TypeShed counts as the reply to an
// over-quota batch). That keeps connection state trivial and lets a
// router multiplex many client streams over a small pool of shard
// connections without reply matching.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"edgedrift/internal/core"
)

// Frame types.
const (
	// TypeHello opens a connection: payload is the 4-byte protocol magic
	// plus a version byte. The server answers TypeHelloAck (same
	// payload) or drops the connection.
	TypeHello = 0x01
	// TypeHelloAck acknowledges a Hello.
	TypeHelloAck = 0x02
	// TypeBatch carries one stream's sample batch (see AppendBatch).
	TypeBatch = 0x10
	// TypeBatchAck carries the per-sample results of a Batch (see
	// AppendResults).
	TypeBatchAck = 0x11
	// TypeShed tells the client its batch was dropped at admission
	// because the shard's ingest queue stayed full past the shed
	// deadline: payload is the stream name and the shed sample count.
	// The batch was NOT processed; the client decides whether to retry.
	TypeShed = 0x12
	// TypeMigrateOut asks the shard to export a stream: payload is the
	// stream name. The shard answers TypeState or TypeError.
	TypeMigrateOut = 0x20
	// TypeState carries an exported member checkpoint (see AppendState).
	TypeState = 0x21
	// TypeMigrateIn hands a checkpoint to the target shard: payload is
	// the same layout as TypeState. The shard answers TypeMigrateAck or
	// TypeError.
	TypeMigrateIn = 0x22
	// TypeMigrateAck acknowledges a MigrateIn: payload is the stream name.
	TypeMigrateAck = 0x23
	// TypeFetchState asks the shard for a stream's mergeable model state
	// WITHOUT deregistering it: payload is the stream name. The shard
	// answers TypeMergeState (one state) or TypeError. Unlike MigrateOut
	// this is non-destructive — the member keeps processing — and it only
	// succeeds for a monitoring member, so a cross-shard recovery can
	// never ship mid-reconstruction state.
	TypeFetchState = 0x24
	// TypeMergeState carries merge state (see AppendMergeStates): as a
	// reply to FetchState (one state, the member's fingerprint) or as a
	// request seeding a stream with peer states (answered by
	// TypeMergeAck or TypeError).
	TypeMergeState = 0x25
	// TypeMergeAck acknowledges a merge seed: payload is the stream name.
	TypeMergeAck = 0x26
	// TypeStats asks the shard for its counters; empty payload. The
	// shard answers TypeStatsReply.
	TypeStats = 0x30
	// TypeStatsReply carries the shard's counter snapshot (see
	// AppendStats).
	TypeStatsReply = 0x31
	// TypeError reports a request failure: payload is a UTF-8 message.
	TypeError = 0x7f
)

// MaxFrame bounds a frame's type+payload length: large enough for a
// 4096-sample batch of 500-dim float64 samples, small enough that a
// corrupt length prefix cannot demand a multi-gigabyte allocation.
const MaxFrame = 16 << 20

// Version is the protocol version carried in the Hello handshake.
const Version = 1

// helloMagic is the 4-byte protocol identifier in Hello/HelloAck.
var helloMagic = [4]byte{'E', 'D', 'W', '1'}

// ErrProtocol reports a malformed frame or handshake.
var ErrProtocol = errors.New("wire: protocol error")

// RemoteError is a TypeError reply surfaced to the caller.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// Conn is a framed connection. ReadFrame and WriteFrame are each safe
// for one concurrent caller (reads and writes may overlap); WriteFrame
// additionally serialises concurrent writers internally so response
// writers and shed notifications can share the connection.
type Conn struct {
	c  net.Conn
	br *bufio.Reader

	wmu  sync.Mutex
	bw   *bufio.Writer
	whdr [5]byte // WriteFrame's header, under wmu

	rhdr [4]byte // ReadFrame's length prefix
	rbuf []byte  // reused ReadFrame buffer; valid until the next ReadFrame
}

// NewConn wraps an established net.Conn. The caller still owes the
// Hello handshake (Handshake client-side, AcceptHandshake server-side).
func NewConn(c net.Conn) *Conn {
	return &Conn{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// SetDeadline bounds the next I/O operations on the connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// Buffered reports how many bytes of further input are already read
// off the socket and waiting in the connection's buffer. Like ReadFrame
// it belongs to the reading goroutine.
func (c *Conn) Buffered() int { return c.br.Buffered() }

// WriteFrame sends one frame (type byte plus payload) and flushes.
func (c *Conn) WriteFrame(typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrProtocol, len(payload)+1)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	binary.LittleEndian.PutUint32(c.whdr[:4], uint32(len(payload)+1))
	c.whdr[4] = typ
	if _, err := c.bw.Write(c.whdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadFrame reads one frame. The returned payload aliases an internal
// buffer and is valid only until the next ReadFrame call — callers that
// hand it to another goroutine must copy it first.
func (c *Conn) ReadFrame() (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(c.rhdr[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: implausible frame length %d", ErrProtocol, n)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	buf := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// Handshake runs the client half of the Hello exchange.
func (c *Conn) Handshake() error {
	if err := c.WriteFrame(TypeHello, append(helloMagic[:4:4], Version)); err != nil {
		return err
	}
	typ, p, err := c.ReadFrame()
	if err != nil {
		return err
	}
	if typ != TypeHelloAck || len(p) != 5 || [4]byte(p[:4]) != helloMagic || p[4] != Version {
		return fmt.Errorf("%w: bad handshake ack", ErrProtocol)
	}
	return nil
}

// AcceptHandshake runs the server half of the Hello exchange.
func (c *Conn) AcceptHandshake() error {
	typ, p, err := c.ReadFrame()
	if err != nil {
		return err
	}
	if typ != TypeHello || len(p) != 5 || [4]byte(p[:4]) != helloMagic {
		return fmt.Errorf("%w: bad hello", ErrProtocol)
	}
	if p[4] != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrProtocol, p[4], Version)
	}
	return c.WriteFrame(TypeHelloAck, append(helloMagic[:4:4], Version))
}

// Dial connects to a shard and completes the handshake.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := NewConn(nc)
	if timeout > 0 {
		nc.SetDeadline(time.Now().Add(timeout))
	}
	if err := c.Handshake(); err != nil {
		nc.Close()
		return nil, err
	}
	if timeout > 0 {
		nc.SetDeadline(time.Time{})
	}
	return c, nil
}

// --- Batch payloads ---

// AppendBatch encodes a Batch payload: stream name, sample geometry,
// then the samples as raw IEEE-754 bit patterns.
//
//	u16 streamLen | stream | u16 dims | u32 count | count×dims f64
func AppendBatch(dst []byte, stream string, xs [][]float64) ([]byte, error) {
	if len(stream) == 0 || len(stream) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: stream name length %d", ErrProtocol, len(stream))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrProtocol)
	}
	dims := len(xs[0])
	if dims == 0 || dims > math.MaxUint16 {
		return nil, fmt.Errorf("%w: sample dimension %d", ErrProtocol, dims)
	}
	dst = appendString(dst, stream)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(dims))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	for _, x := range xs {
		if len(x) != dims {
			return nil, fmt.Errorf("%w: ragged batch (%d-dim sample in %d-dim batch)", ErrProtocol, len(x), dims)
		}
		for _, v := range x {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// Batch is a parsed Batch payload. Samples aliases the frame buffer —
// decode or copy before the next ReadFrame.
type Batch struct {
	Stream  string
	Dims    int
	Count   int
	Samples []byte // Count×Dims little-endian f64 bit patterns
}

// ParseBatch parses a Batch payload without decoding the samples, so a
// router can route on the header alone and relay the bytes untouched.
// The geometry is checked in uint64 against MaxFrame, so a header whose
// count×dims×8 would wrap a 32-bit int is rejected, not trusted.
func ParseBatch(p []byte) (Batch, error) { return (*Names)(nil).ParseBatch(p) }

// maxNames bounds a Names table: past it the table starts over, so a
// peer cycling through fresh stream names cannot grow it without bound.
const maxNames = 4096

// Names interns the stream names read off one connection. A batch for
// a stream the table has seen parses without allocating its name: the
// lookup m[string(b)] does not copy. The zero value is ready to use; a
// nil *Names interns nothing. Not safe for concurrent use.
type Names struct{ m map[string]string }

// intern returns b as a string, shared with earlier batches of the same
// stream when the table holds it.
func (n *Names) intern(b []byte) string {
	if n == nil {
		return string(b)
	}
	if s, ok := n.m[string(b)]; ok {
		return s
	}
	if n.m == nil || len(n.m) >= maxNames {
		n.m = make(map[string]string)
	}
	s := string(b)
	n.m[s] = s
	return s
}

// ParseBatch is the package-level ParseBatch with the stream name
// interned in n.
func (n *Names) ParseBatch(p []byte) (Batch, error) {
	var b Batch
	name, rest, err := parseName(p)
	if err != nil {
		return b, err
	}
	if len(name) == 0 {
		return b, fmt.Errorf("%w: empty stream name", ErrProtocol) // as AppendBatch
	}
	if len(rest) < 6 {
		return b, fmt.Errorf("%w: short batch header", ErrProtocol)
	}
	dims := uint64(binary.LittleEndian.Uint16(rest))
	count := uint64(binary.LittleEndian.Uint32(rest[2:]))
	b.Stream = n.intern(name)
	b.Samples = rest[6:]
	if dims == 0 || count == 0 {
		return b, fmt.Errorf("%w: empty batch geometry %dx%d", ErrProtocol, count, dims)
	}
	if want := count * dims * 8; want > MaxFrame || uint64(len(b.Samples)) != want {
		return b, fmt.Errorf("%w: batch payload %d bytes, want %d", ErrProtocol, len(b.Samples), want)
	}
	b.Dims, b.Count = int(dims), int(count)
	return b, nil
}

// Decode materialises the batch into dst and returns it. When dst's rows
// (up to its capacity) can hold the batch they are reused, so a caller
// that keeps dst across batches decodes without allocating; otherwise
// the rows are carved from one fresh backing array, which with a fresh
// row slice is two allocations per batch. The result is valid as long
// as dst's rows are.
func (b Batch) Decode(dst [][]float64) [][]float64 {
	if cap(dst) < b.Count {
		dst = make([][]float64, b.Count)
	}
	dst = dst[:b.Count]
	for _, row := range dst {
		if cap(row) < b.Dims {
			flat := make([]float64, b.Count*b.Dims)
			for i := range dst {
				dst[i] = flat[i*b.Dims : (i+1)*b.Dims : (i+1)*b.Dims]
			}
			break
		}
	}
	for i := range dst {
		row := dst[i][:b.Dims]
		dst[i] = row
		off := i * b.Dims * 8
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(b.Samples[off+j*8:]))
		}
	}
	return dst
}

// --- Result payloads ---

// Per-sample result flags in a BatchAck.
const (
	flagDrift    = 1 << 0
	flagRejected = 1 << 1
)

// resultBytes is the fixed per-sample encoding size in a BatchAck:
// i32 label, u8 phase, u8 flags, f64 score bits, f64 dist bits.
const resultBytes = 4 + 1 + 1 + 8 + 8

// AppendResults encodes a BatchAck payload: the stream name and every
// core.Result field bit-exactly.
//
//	u16 streamLen | stream | u32 count | count × (i32 u8 u8 f64 f64)
func AppendResults(dst []byte, stream string, rs []core.Result) []byte {
	dst = appendString(dst, stream)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs)))
	for _, r := range rs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Label)))
		flags := byte(0)
		if r.DriftDetected {
			flags |= flagDrift
		}
		if r.Rejected {
			flags |= flagRejected
		}
		dst = append(dst, byte(r.Phase), flags)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Score))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Dist))
	}
	return dst
}

// ParseResults decodes a BatchAck payload, appending into dst.
func ParseResults(p []byte, dst []core.Result) (stream string, _ []core.Result, err error) {
	stream, rest, err := parseString(p)
	if err != nil {
		return "", dst, err
	}
	if len(rest) < 4 {
		return "", dst, fmt.Errorf("%w: short results header", ErrProtocol)
	}
	count := uint64(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	// In uint64, so a count whose product wraps a 32-bit int cannot
	// match a short payload.
	if want := count * resultBytes; uint64(len(rest)) != want {
		return "", dst, fmt.Errorf("%w: results payload %d bytes, want %d", ErrProtocol, len(rest), want)
	}
	for i := 0; i < int(count); i++ {
		q := rest[i*resultBytes:]
		flags := q[5]
		dst = append(dst, core.Result{
			Label:         int(int32(binary.LittleEndian.Uint32(q))),
			Phase:         core.Phase(q[4]),
			DriftDetected: flags&flagDrift != 0,
			Rejected:      flags&flagRejected != 0,
			Score:         math.Float64frombits(binary.LittleEndian.Uint64(q[6:])),
			Dist:          math.Float64frombits(binary.LittleEndian.Uint64(q[14:])),
		})
	}
	return stream, dst, nil
}

// --- Shed payloads ---

// AppendShed encodes a Shed payload: the stream and how many samples
// were dropped at admission.
func AppendShed(dst []byte, stream string, samples int) []byte {
	dst = appendString(dst, stream)
	return binary.LittleEndian.AppendUint32(dst, uint32(samples))
}

// ParseShed decodes a Shed payload.
func ParseShed(p []byte) (stream string, samples int, err error) {
	stream, rest, err := parseString(p)
	if err != nil {
		return "", 0, err
	}
	if len(rest) != 4 {
		return "", 0, fmt.Errorf("%w: shed payload %d bytes", ErrProtocol, len(rest))
	}
	return stream, int(binary.LittleEndian.Uint32(rest)), nil
}

// --- Migration payloads ---

// State is an exported member checkpoint in flight between shards: the
// wire twin of the fleet's member handoff (kind byte, lifetime
// counters, self-checksummed payload).
type State struct {
	Stream  string
	Kind    byte
	Samples uint64
	Drifts  uint64
	Payload []byte
}

// AppendState encodes a State (or MigrateIn) payload.
//
//	u16 streamLen | stream | u8 kind | u64 samples | u64 drifts | u32 payloadLen | payload
func AppendState(dst []byte, st State) []byte {
	dst = appendString(dst, st.Stream)
	dst = append(dst, st.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, st.Samples)
	dst = binary.LittleEndian.AppendUint64(dst, st.Drifts)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Payload)))
	return append(dst, st.Payload...)
}

// ParseState decodes a State payload. State.Payload aliases p — copy
// before the next ReadFrame if it outlives the frame.
func ParseState(p []byte) (State, error) {
	var st State
	stream, rest, err := parseString(p)
	if err != nil {
		return st, err
	}
	if len(rest) < 1+8+8+4 {
		return st, fmt.Errorf("%w: short state header", ErrProtocol)
	}
	st.Stream = stream
	st.Kind = rest[0]
	st.Samples = binary.LittleEndian.Uint64(rest[1:])
	st.Drifts = binary.LittleEndian.Uint64(rest[9:])
	plen := binary.LittleEndian.Uint32(rest[17:])
	rest = rest[21:]
	if len(rest) != int(plen) {
		return st, fmt.Errorf("%w: state payload %d bytes, want %d", ErrProtocol, len(rest), plen)
	}
	st.Payload = rest
	return st, nil
}

// --- Merge payloads ---

// MergeStates is cooperative model state in flight: a fetch reply
// carries one exported state and the member's merge fingerprint; a seed
// request carries the peer states a stream's model should be replaced
// with (Fingerprint then holds the expected fingerprint of the target,
// 0 to skip the check).
type MergeStates struct {
	Stream      string
	Fingerprint uint64
	States      [][]byte
}

// AppendMergeStates encodes a MergeState payload.
//
//	u16 streamLen | stream | u64 fingerprint | u32 count | count × (u32 len | state)
func AppendMergeStates(dst []byte, ms MergeStates) []byte {
	dst = appendString(dst, ms.Stream)
	dst = binary.LittleEndian.AppendUint64(dst, ms.Fingerprint)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ms.States)))
	for _, st := range ms.States {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st)))
		dst = append(dst, st...)
	}
	return dst
}

// ParseMergeStates decodes a MergeState payload. The states alias p —
// copy before the next ReadFrame if they outlive the frame.
func ParseMergeStates(p []byte) (MergeStates, error) {
	var ms MergeStates
	stream, rest, err := parseString(p)
	if err != nil {
		return ms, err
	}
	if len(rest) < 8+4 {
		return ms, fmt.Errorf("%w: short merge-state header", ErrProtocol)
	}
	ms.Stream = stream
	ms.Fingerprint = binary.LittleEndian.Uint64(rest)
	count := binary.LittleEndian.Uint32(rest[8:]) // not int: ≥ 2^31 is negative on 32-bit
	rest = rest[12:]
	if count == 0 || count > math.MaxUint16 {
		return ms, fmt.Errorf("%w: implausible merge-state count %d", ErrProtocol, count)
	}
	ms.States = make([][]byte, 0, count)
	for i := 0; i < int(count); i++ {
		if len(rest) < 4 {
			return ms, fmt.Errorf("%w: merge-state payload truncated at state %d", ErrProtocol, i)
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(n) { // not int: n ≥ 2^31 is negative on 32-bit
			return ms, fmt.Errorf("%w: merge-state payload truncated at state %d", ErrProtocol, i)
		}
		ms.States = append(ms.States, rest[:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return ms, fmt.Errorf("%w: merge-state payload has %d trailing bytes", ErrProtocol, len(rest))
	}
	return ms, nil
}

// --- Stats payloads ---

// Stats is a shard's counter snapshot: the accounting surface
// layerbench's load generator and the router use to prove zero lost and zero double-counted samples
// across sheds and migrations.
type Stats struct {
	Streams     uint32
	Samples     uint64
	Drifts      uint64
	Batches     uint64
	ShedSamples uint64
	ShedBatches uint64
	MigratedIn  uint64
	MigratedOut uint64
	QueueDepth  uint32
	// Adaptive-capacity fields: members currently demoted, lifetime
	// transition counters, and the shard's p99 batch-ingest latency
	// (0 before any batch). A router aggregation sums the counters and
	// takes the worst p99 across shards.
	Degraded           uint32
	Demotions          uint64
	Promotions         uint64
	TransitionFailures uint64
	IngestP99Ns        uint64
}

// AppendStats encodes a StatsReply payload.
func AppendStats(dst []byte, s Stats) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, s.Streams)
	for _, v := range [...]uint64{s.Samples, s.Drifts, s.Batches, s.ShedSamples, s.ShedBatches, s.MigratedIn, s.MigratedOut} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, s.QueueDepth)
	dst = binary.LittleEndian.AppendUint32(dst, s.Degraded)
	for _, v := range [...]uint64{s.Demotions, s.Promotions, s.TransitionFailures, s.IngestP99Ns} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// ParseStats decodes a StatsReply payload.
func ParseStats(p []byte) (Stats, error) {
	var s Stats
	if len(p) != 4+7*8+4+4+4*8 {
		return s, fmt.Errorf("%w: stats payload %d bytes", ErrProtocol, len(p))
	}
	s.Streams = binary.LittleEndian.Uint32(p)
	p = p[4:]
	for _, v := range [...]*uint64{&s.Samples, &s.Drifts, &s.Batches, &s.ShedSamples, &s.ShedBatches, &s.MigratedIn, &s.MigratedOut} {
		*v = binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	s.QueueDepth = binary.LittleEndian.Uint32(p)
	p = p[4:]
	s.Degraded = binary.LittleEndian.Uint32(p)
	p = p[4:]
	for _, v := range [...]*uint64{&s.Demotions, &s.Promotions, &s.TransitionFailures, &s.IngestP99Ns} {
		*v = binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	return s, nil
}

// --- Small helpers ---

// ParseStream parses a u16-length-prefixed stream name, returning the
// remaining payload.
func ParseStream(p []byte) (s string, rest []byte, err error) { return parseString(p) }

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func parseString(p []byte) (s string, rest []byte, err error) {
	b, rest, err := parseName(p)
	return string(b), rest, err
}

// parseName is parseString without the copy: the name aliases p.
func parseName(p []byte) (name, rest []byte, err error) {
	if len(p) < 2 {
		return nil, nil, fmt.Errorf("%w: short string", ErrProtocol)
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+n {
		return nil, nil, fmt.Errorf("%w: truncated string", ErrProtocol)
	}
	return p[2 : 2+n], p[2+n:], nil
}
