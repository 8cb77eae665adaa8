package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"reflect"
	"testing"

	"edgedrift/internal/core"
)

func TestBatchRoundTrip(t *testing.T) {
	xs := [][]float64{
		{1.5, -2.25, math.Inf(1)},
		{0, math.NaN(), 3.75},
	}
	p, err := AppendBatch(nil, "sensor-7", xs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stream != "sensor-7" || b.Dims != 3 || b.Count != 2 {
		t.Fatalf("header = %q %dx%d", b.Stream, b.Count, b.Dims)
	}
	got := b.Decode(nil)
	for i := range xs {
		for j := range xs[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(xs[i][j]) {
				t.Fatalf("sample %d[%d]: %v != %v (bit-exact)", i, j, got[i][j], xs[i][j])
			}
		}
	}
}

func TestBatchRejects(t *testing.T) {
	if _, err := AppendBatch(nil, "", [][]float64{{1}}); err == nil {
		t.Fatal("empty stream name accepted")
	}
	if _, err := AppendBatch(nil, "s", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := AppendBatch(nil, "s", [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	p, _ := AppendBatch(nil, "s", [][]float64{{1, 2}})
	if _, err := ParseBatch(p[:len(p)-1]); err == nil {
		t.Fatal("truncated batch parsed")
	}
}

// TestBatchGeometryWrapRejected is the 32-bit crash regression: a
// 17-byte Batch frame declaring dims=1, count=2^29 and carrying no
// samples. count×dims×8 = 2^32 wraps a 32-bit int to 0, which matched
// the empty payload, and Decode then indexed past it. The frame must be
// rejected on every architecture.
func TestBatchGeometryWrapRejected(t *testing.T) {
	payload := []byte{4, 0, 'e', 'v', 'i', 'l', 1, 0, 0, 0, 0, 0x20} // stream, dims=1, count=2^29
	frame := append([]byte{byte(len(payload) + 1), 0, 0, 0, TypeBatch}, payload...)
	if len(frame) != 17 {
		t.Fatalf("frame is %d bytes, want 17", len(frame))
	}
	a, c := net.Pipe()
	defer a.Close()
	defer c.Close()
	go a.Write(frame)
	typ, p, err := NewConn(c).ReadFrame()
	if err != nil || typ != TypeBatch {
		t.Fatalf("ReadFrame: type %#x, %v", typ, err)
	}
	b, err := ParseBatch(p)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("wrapping batch geometry accepted as %dx%d (%v)", b.Count, b.Dims, err)
	}
}

// TestBatchDecodeAllocs pins Decode's allocation contract: two
// allocations for a fresh batch (one backing array, one row slice) and
// none when the previous result is handed back as dst.
func TestBatchDecodeAllocs(t *testing.T) {
	xs := make([][]float64, 16)
	for i := range xs {
		xs[i] = make([]float64, 38)
		for j := range xs[i] {
			xs[i][j] = float64(i*38 + j)
		}
	}
	p, err := AppendBatch(nil, "s", xs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { b.Decode(nil) }); n != 2 {
		t.Fatalf("Decode(nil): %v allocations per batch, want 2", n)
	}
	dst := b.Decode(nil)
	if n := testing.AllocsPerRun(50, func() { dst = b.Decode(dst) }); n != 0 {
		t.Fatalf("Decode(reused): %v allocations per batch, want 0", n)
	}
	if !reflect.DeepEqual(dst, xs) {
		t.Fatal("reused decode differs from the encoded batch")
	}
	// A shorter batch reuses the leading rows; a wider one re-carves.
	short, _ := AppendBatch(nil, "s", xs[:3])
	sb, _ := ParseBatch(short)
	if got := sb.Decode(dst); !reflect.DeepEqual(got, xs[:3]) {
		t.Fatal("shorter batch decoded wrong into reused rows")
	}
	wide, _ := AppendBatch(nil, "s", [][]float64{make([]float64, 40), make([]float64, 40)})
	wb, _ := ParseBatch(wide)
	if got := wb.Decode(dst); len(got) != 2 || len(got[0]) != 40 || len(got[1]) != 40 {
		t.Fatal("wider batch decoded to the wrong shape")
	}
}

func TestResultsRoundTripBitExact(t *testing.T) {
	rs := []core.Result{
		{Label: 3, Score: 0.123456789, Phase: core.Checking, Dist: 1.5},
		{Label: -1, Score: math.Inf(1), Phase: core.Reconstructing, DriftDetected: true, Dist: 42.000000001},
		{Label: 0, Score: 0, Phase: core.Monitoring, Rejected: true},
	}
	p := AppendResults(nil, "s", rs)
	stream, got, err := ParseResults(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stream != "s" {
		t.Fatalf("stream = %q", stream)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("results round trip:\n got %+v\nwant %+v", got, rs)
	}
}

func TestStateRoundTrip(t *testing.T) {
	st := State{Stream: "mig", Kind: 1, Samples: 1 << 40, Drifts: 7, Payload: []byte{1, 2, 3}}
	got, err := ParseState(AppendState(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("state round trip: %+v != %+v", got, st)
	}
}

func TestShedAndStatsRoundTrip(t *testing.T) {
	stream, n, err := ParseShed(AppendShed(nil, "s", 640))
	if err != nil || stream != "s" || n != 640 {
		t.Fatalf("shed round trip: %q %d %v", stream, n, err)
	}
	s := Stats{Streams: 3, Samples: 1000, Drifts: 5, Batches: 40, ShedSamples: 64,
		ShedBatches: 1, MigratedIn: 2, MigratedOut: 1, QueueDepth: 9,
		Degraded: 2, Demotions: 4, Promotions: 2, TransitionFailures: 1,
		IngestP99Ns: 1_048_575}
	got, err := ParseStats(AppendStats(nil, s))
	if err != nil || got != s {
		t.Fatalf("stats round trip: %+v %v", got, err)
	}
	// A payload from a pre-transition peer (or any torn length) is
	// rejected, not misparsed.
	short := AppendStats(nil, s)[:4+7*8+4]
	if _, err := ParseStats(short); err == nil {
		t.Fatal("legacy-length stats payload parsed")
	}
}

// TestFramedExchange runs the handshake and a batch request/reply over
// a real TCP socket pair.
func TestFramedExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serverErr := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		sc := NewConn(nc)
		if err := sc.AcceptHandshake(); err != nil {
			serverErr <- err
			return
		}
		typ, p, err := sc.ReadFrame()
		if err != nil || typ != TypeBatch {
			serverErr <- err
			return
		}
		b, err := ParseBatch(p)
		if err != nil {
			serverErr <- err
			return
		}
		rs := make([]core.Result, b.Count)
		for i := range rs {
			rs[i] = core.Result{Label: i, Score: float64(i), Phase: core.Monitoring}
		}
		serverErr <- sc.WriteFrame(TypeBatchAck, AppendResults(nil, b.Stream, rs))
	}()

	cl, err := DialClient(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rs, shed, err := cl.SendBatch(nil, "s", [][]float64{{1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if shed != 0 || len(rs) != 3 || rs[2].Label != 2 {
		t.Fatalf("reply = shed %d, %+v", shed, rs)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeRejectsGarbage: a non-protocol peer must fail the
// handshake, not hang or crash the server loop.
func TestHandshakeRejectsGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		done <- NewConn(nc).AcceptHandshake()
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := NewConn(nc)
	if err := c.WriteFrame(TypeHello, []byte("BOGUS")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrProtocol) {
		t.Fatalf("server accepted garbage hello: %v", err)
	}
}

func TestFrameLengthBounds(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB length prefix
	_, _, err := NewConn(b).ReadFrame()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("implausible frame length accepted: %v", err)
	}
}

func TestMergeStatesRoundTrip(t *testing.T) {
	ms := MergeStates{
		Stream:      "fan-3",
		Fingerprint: 0xdeadbeefcafe,
		States:      [][]byte{{1, 2, 3}, {}, {4}},
	}
	got, err := ParseMergeStates(AppendMergeStates(nil, ms))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream != ms.Stream || got.Fingerprint != ms.Fingerprint || len(got.States) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range ms.States {
		if !bytes.Equal(got.States[i], ms.States[i]) {
			t.Fatalf("state %d round-tripped to %v", i, got.States[i])
		}
	}
}

func TestMergeStatesRejects(t *testing.T) {
	good := AppendMergeStates(nil, MergeStates{Stream: "s", Fingerprint: 1,
		States: [][]byte{{9, 9}, {8}}})
	// Zero states is not a valid frame in either direction.
	if _, err := ParseMergeStates(AppendMergeStates(nil, MergeStates{Stream: "s"})); err == nil {
		t.Fatal("zero-state payload accepted")
	}
	// Any truncation must be rejected.
	for n := 0; n < len(good); n++ {
		if _, err := ParseMergeStates(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := ParseMergeStates(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A state length pointing past the payload must be rejected.
	bad := append([]byte(nil), good...)
	bad[len(bad)-3] = 0xff // first byte of the last state's u32 length
	if _, err := ParseMergeStates(bad); err == nil {
		t.Fatal("oversized state length accepted")
	}
}

// TestResultsCountWrapRejected: a BatchAck whose count×22 wraps a
// 32-bit int to the payload's 18 bytes must be rejected, not indexed.
func TestResultsCountWrapRejected(t *testing.T) {
	p := binary.LittleEndian.AppendUint32(appendString(nil, "s"), 195225787) // ×22 = 2^32 + 18
	p = append(p, make([]byte, 18)...)
	if _, rs, err := ParseResults(p, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("wrapping result count accepted as %d results (%v)", len(rs), err)
	}
}

// TestMergeStatesHugeLengthRejected: a state length or count ≥ 2^31 is
// negative as a 32-bit int and must be rejected, not sliced or
// allocated.
func TestMergeStatesHugeLengthRejected(t *testing.T) {
	p := AppendMergeStates(nil, MergeStates{Stream: "s", States: [][]byte{{1, 2, 3}}})
	binary.LittleEndian.PutUint32(p[len(p)-7:], 0xffffffff)
	if _, err := ParseMergeStates(p); !errors.Is(err, ErrProtocol) {
		t.Fatalf("state length 2^32-1 accepted (%v)", err)
	}
	// A state count of 2^32-1 went negative on 32-bit, passed the
	// plausibility check and panicked in make.
	binary.LittleEndian.PutUint32(p[2+1+8:], 0xffffffff)
	if _, err := ParseMergeStates(p); !errors.Is(err, ErrProtocol) {
		t.Fatalf("state count 2^32-1 accepted (%v)", err)
	}
}

// FuzzParseBatch feeds arbitrary payloads through ParseBatch (plain and
// interned) and decodes every accepted one into a dirty, reused dst —
// the shard's inline pattern. Nothing may panic, and an accepted
// payload must re-encode to exactly its own bytes.
func FuzzParseBatch(f *testing.F) {
	valid, _ := AppendBatch(nil, "sensor-7", [][]float64{{1.5, math.NaN()}, {math.Inf(-1), 0}})
	f.Add(valid)
	f.Add([]byte{4, 0, 'e', 'v', 'i', 'l', 1, 0, 0, 0, 0, 0x20}) // count×dims×8 wraps 32 bits
	f.Add([]byte{0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	var names Names
	dst := [][]float64{make([]float64, 1, 3), nil, make([]float64, 7)}
	for _, row := range dst {
		for j := range row[:cap(row)] {
			row[:cap(row)][j] = math.NaN()
		}
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		b, err := ParseBatch(p)
		ib, ierr := names.ParseBatch(p)
		if (err == nil) != (ierr == nil) || b.Stream != ib.Stream || b.Count != ib.Count || b.Dims != ib.Dims {
			t.Fatalf("interned parse %+v (%v) differs from plain %+v (%v)", ib, ierr, b, err)
		}
		if err != nil {
			return
		}
		dst = b.Decode(dst)
		if len(dst) != b.Count {
			t.Fatalf("decoded %d rows, want %d", len(dst), b.Count)
		}
		q, err := AppendBatch(nil, b.Stream, dst)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(q, p) {
			t.Fatal("accepted batch re-encodes to different bytes")
		}
	})
}

// FuzzParseResults feeds arbitrary payloads through ParseResults,
// appending after existing results. Nothing may panic, the prefix must
// survive, and an accepted payload must re-encode to its own bytes
// (flag bits the protocol does not define aside).
func FuzzParseResults(f *testing.F) {
	f.Add(AppendResults(nil, "s", []core.Result{{Label: -1, Phase: core.Monitoring, DriftDetected: true, Score: math.NaN(), Dist: 2}}))
	f.Add(AppendResults(nil, "", nil))
	wrap := binary.LittleEndian.AppendUint32(appendString(nil, "s"), 195225787)
	f.Add(append(wrap, make([]byte, 18)...))
	prefix := []core.Result{{Label: 7, Score: 1}}
	f.Fuzz(func(t *testing.T, p []byte) {
		stream, rs, err := ParseResults(p, prefix[:1:1])
		if !reflect.DeepEqual(rs[:1], prefix) {
			t.Fatal("ParseResults clobbered dst's existing results")
		}
		if err != nil {
			return
		}
		q := AppendResults(nil, stream, rs[1:])
		want := append([]byte(nil), p...)
		for i := len(want) - len(rs[1:])*resultBytes; i < len(want); i += resultBytes {
			want[i+5] &= flagDrift | flagRejected
		}
		if !bytes.Equal(q, want) {
			t.Fatal("accepted results re-encode to different bytes")
		}
	})
}

// FuzzParseControl feeds the same bytes to every control-payload
// parser. None may panic; a rejection must wrap ErrProtocol, and an
// accepted payload must re-encode through its Append twin to exactly
// the input bytes.
func FuzzParseControl(f *testing.F) {
	f.Add(AppendState(nil, State{Stream: "s", Kind: 2, Samples: 7, Drifts: 1, Payload: []byte("ckpt")}))
	f.Add(AppendMergeStates(nil, MergeStates{Stream: "fan", Fingerprint: 99, States: [][]byte{{1, 2}, nil}}))
	f.Add(AppendStats(nil, Stats{Streams: 3, Samples: 1 << 40, IngestP99Ns: 12345}))
	f.Add(AppendShed(nil, "s", 64))
	f.Add([]byte{1, 0, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // count 2^32-1
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		check := func(name string, err error, reencode func() []byte) {
			t.Helper()
			if err != nil {
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("%s: rejection %v does not wrap ErrProtocol", name, err)
				}
				return
			}
			if q := reencode(); !bytes.Equal(q, p) {
				t.Fatalf("%s: accepted payload re-encodes to different bytes", name)
			}
		}
		st, err := ParseState(p)
		check("ParseState", err, func() []byte { return AppendState(nil, st) })
		ms, err := ParseMergeStates(p)
		check("ParseMergeStates", err, func() []byte { return AppendMergeStates(nil, ms) })
		s, err := ParseStats(p)
		check("ParseStats", err, func() []byte { return AppendStats(nil, s) })
		stream, samples, err := ParseShed(p)
		check("ParseShed", err, func() []byte { return AppendShed(nil, stream, samples) })
	})
}
