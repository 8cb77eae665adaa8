package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"edgedrift"
	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/rng"
	"edgedrift/internal/wire"
)

// testTemplate trains a small monitor on synthetic Gaussian data and
// returns its serialised artifact plus a drifted stream to replay.
func testTemplate(t testing.TB) (template []byte, stream [][]float64) {
	t.Helper()
	oldC := synth.NewGaussian([][]float64{{0, 0, 0}, {5, 5, 5}}, 0.3)
	newC := synth.ShiftedGaussian(oldC, 4)
	r := rng.New(7)
	trainX, trainY := synth.TrainingSet(oldC, 300, r)
	st, err := synth.Generate(oldC, newC, 3000, synth.Spec{Kind: synth.Sudden, Start: 1000}, r)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: 2, Inputs: 3, Hidden: 8, Window: 50, NRecon: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st.X
}

// startShard builds and serves a shard on an ephemeral port.
func startShard(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// referenceFleet replays the template locally — the ground truth every
// shard result must match bit-for-bit.
func referenceFleet(t *testing.T, template []byte, prec edgedrift.Precision, streams ...string) *edgedrift.Fleet {
	t.Helper()
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for _, id := range streams {
		mon, err := edgedrift.LoadMonitor(bytes.NewReader(template))
		if err != nil {
			t.Fatal(err)
		}
		var st edgedrift.Streaming = mon
		if prec == edgedrift.Fixed16 {
			if st, err = mon.QuantizeQ16(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.AddStage(id, st); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestShardBatchIngest drives two streams through a shard over TCP and
// asserts every result is bit-identical to a local fleet replay.
func TestShardBatchIngest(t *testing.T) {
	template, stream := testTemplate(t)
	_, addr := startShard(t, Config{Template: template})
	ref := referenceFleet(t, template, edgedrift.Float64, "a", "b")

	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const batchLen = 100
	for off := 0; off+batchLen <= 1000; off += batchLen {
		xs := stream[off : off+batchLen]
		for _, id := range []string{"a", "b"} {
			got, shed, err := cl.SendBatch(nil, id, xs)
			if err != nil {
				t.Fatal(err)
			}
			if shed != 0 {
				t.Fatalf("unexpected shed of %d samples with backpressure policy", shed)
			}
			want, err := ref.ProcessBatch(id, xs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: shard results diverge from local replay at offset %d", id, off)
			}
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Streams != 2 || st.Samples != 2000 || st.ShedSamples != 0 {
		t.Fatalf("stats = %+v, want 2 streams / 2000 samples / 0 shed", st)
	}
}

// TestShardShedAccounting pins the shed policy's books: with an
// immediate-shed queue and the worker busy, pipelined batches are
// dropped at admission — and sent == processed + shed holds exactly.
func TestShardShedAccounting(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template, QueueDepth: 2, ShedAfter: -1})

	conn, err := wire.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Pipeline: blast batches without reading acks, then drain. The
	// worker can't keep up with a zero-latency sender, so the 2-deep
	// queue must overflow and shed.
	const nBatches, batchLen = 40, 64
	sent := 0
	var wg sync.WaitGroup
	wg.Add(1)
	acked, shedSamples := 0, 0
	go func() {
		defer wg.Done()
		for i := 0; i < nBatches; i++ {
			typ, p, err := conn.ReadFrame()
			if err != nil {
				t.Error(err)
				return
			}
			switch typ {
			case wire.TypeBatchAck:
				_, rs, err := wire.ParseResults(p, nil)
				if err != nil {
					t.Error(err)
					return
				}
				acked += len(rs)
			case wire.TypeShed:
				_, n, err := wire.ParseShed(p)
				if err != nil {
					t.Error(err)
					return
				}
				shedSamples += n
			default:
				t.Errorf("unexpected frame %#x", typ)
				return
			}
		}
	}()
	var payload []byte
	for i := 0; i < nBatches; i++ {
		off := (i * batchLen) % (len(stream) - batchLen)
		payload, err = wire.AppendBatch(payload[:0], "s", stream[off:off+batchLen])
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.WriteFrame(wire.TypeBatch, payload); err != nil {
			t.Fatal(err)
		}
		sent += batchLen
	}
	wg.Wait()

	if shedSamples == 0 {
		t.Fatalf("a pipelined burst of %d batches into a 2-deep immediate-shed queue shed nothing", nBatches)
	}
	if acked+shedSamples != sent {
		t.Fatalf("accounting broken: acked %d + shed %d != sent %d", acked, shedSamples, sent)
	}
	st := s.Stats()
	if st.Samples != uint64(acked) {
		t.Fatalf("shard processed %d samples, acked %d — a shed batch was processed", st.Samples, acked)
	}
	if st.ShedSamples != uint64(shedSamples) {
		t.Fatalf("shard shed counter %d, client saw %d", st.ShedSamples, shedSamples)
	}
}

// TestShardInlineZeroAllocs pins the run-to-completion path: once its
// stream exists, a batch sent to an idle connection is read, decoded,
// processed and acked without a single allocation, client side included.
func TestShardInlineZeroAllocs(t *testing.T) {
	template, stream := testTemplate(t)
	_, addr := startShard(t, Config{Template: template})
	conn, err := wire.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, err := wire.AppendBatch(nil, "s", stream[:16])
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		if err := conn.WriteFrame(wire.TypeBatch, payload); err != nil {
			t.Fatal(err)
		}
		if typ, p, err := conn.ReadFrame(); err != nil || typ != wire.TypeBatchAck {
			t.Fatalf("reply %#x %q: %v", typ, p, err)
		}
	}
	for i := 0; i < 10; i++ {
		roundTrip() // create the stream, size every reused buffer
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Fatalf("steady-state inline batch: %v allocations per round trip, want 0", n)
	}
}

// TestShardMigration moves a live stream between two shards mid-stream
// and asserts bit-identical continuation and exact counter carry-over.
func TestShardMigration(t *testing.T) {
	template, stream := testTemplate(t)
	a, addrA := startShard(t, Config{Template: template})
	b, addrB := startShard(t, Config{Template: template})
	ref := referenceFleet(t, template, edgedrift.Float64, "mig")

	clA, err := wire.DialClient(addrA, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	clB, err := wire.DialClient(addrB, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()

	check := func(cl *wire.Client, xs [][]float64) {
		t.Helper()
		got, shed, err := cl.SendBatch(nil, "mig", xs)
		if err != nil || shed != 0 {
			t.Fatal(err, shed)
		}
		want, err := ref.ProcessBatch("mig", xs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("results diverge from unmigrated reference")
		}
	}

	// First 1500 samples on shard A — through the drift at 1000 AND the
	// reconstruction that follows (checkpointing is refused
	// mid-reconstruction, so a migration point must sit past it).
	for off := 0; off < 1500; off += 100 {
		check(clA, stream[off:off+100])
	}
	// Live migration: export from A, import to B.
	st, err := clA.MigrateOut("mig")
	if err != nil {
		t.Fatal(err)
	}
	if err := clB.MigrateIn(st); err != nil {
		t.Fatal(err)
	}
	// A late batch at the old home must fail loudly, not respawn a
	// fresh member from the template.
	if _, _, err := clA.SendBatch(nil, "mig", stream[1500:1600]); err == nil {
		t.Fatal("tombstoned stream accepted a batch on the source shard")
	} else {
		var re *wire.RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "migrated out") {
			t.Fatalf("tombstone error = %v", err)
		}
	}
	// Continuation on shard B stays bit-identical.
	for off := 1500; off < 3000; off += 100 {
		check(clB, stream[off:off+100])
	}

	// Accounting: zero lost, zero double-counted across the move. The
	// exported member leaves the source roll-up entirely (its lifetime
	// counters travel with it), so all 3000 samples live on B.
	sa, sb := a.Stats(), b.Stats()
	if sa.Samples != 0 || sa.Streams != 0 {
		t.Fatalf("source shard kept %d samples / %d streams after export", sa.Samples, sa.Streams)
	}
	if sb.Samples != 3000 {
		t.Fatalf("target shard samples = %d, want 3000 (carried counters + new batches)", sb.Samples)
	}
	if sa.MigratedOut != 1 || sb.MigratedIn != 1 {
		t.Fatalf("migration counters: out=%d in=%d", sa.MigratedOut, sb.MigratedIn)
	}
	refS, refD, err := ref.MemberStats("mig")
	if err != nil {
		t.Fatal(err)
	}
	bS, bD, err := b.Fleet().MemberStats("mig")
	if err != nil {
		t.Fatal(err)
	}
	if bS != refS || bD != refD {
		t.Fatalf("migrated counters %d/%d, reference %d/%d", bS, bD, refS, refD)
	}
}

// TestShardSurvivesCraftedMigrateIn sends two tiny MigrateIn payloads
// whose headers declare huge shapes: a 38-byte QFIX01 member (kind 1,
// inputs = hidden = 2²⁰), which once ran the shard out of memory, and a
// 66-byte MULTI2 member (kind 0, H = D = 2¹³), which once allocated
// 2 GiB before its short read failed. Each must come back as a remote
// error, and the shard must keep serving other streams.
func TestShardSurvivesCraftedMigrateIn(t *testing.T) {
	template, stream := testTemplate(t)
	_, addr := startShard(t, Config{Template: template})
	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var qfix, multi bytes.Buffer
	for _, v := range []any{[]byte("QFIX01"), []uint32{1, 0, 1, 0, 0, 1 << 20, 1 << 20, 0}} {
		binary.Write(&qfix, binary.LittleEndian, v)
	}
	for _, v := range []any{[]byte("MULTI2"), []uint32{1, 0}, []byte("OSELM3"), []byte{0, 0},
		[]uint32{1 << 13, 1 << 13, 1 << 13, 0, 0}, []float64{1, 0.01, 1}} {
		binary.Write(&multi, binary.LittleEndian, v)
	}
	if qfix.Len() != 38 || multi.Len() != 66 {
		t.Fatalf("payloads are %d and %d bytes", qfix.Len(), multi.Len())
	}
	for _, st := range []wire.State{
		{Stream: "qfix", Kind: 1, Payload: qfix.Bytes()},
		{Stream: "multi", Kind: 0, Payload: multi.Bytes()},
	} {
		var re *wire.RemoteError
		err := cl.MigrateIn(st)
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "bad format") {
			t.Fatalf("%s: err = %v, want a remote bad-format error", st.Stream, err)
		}
	}
	if _, _, err := cl.SendBatch(nil, "other", stream[:100]); err != nil {
		t.Fatalf("shard stopped serving after the crafted payloads: %v", err)
	}
}

// withDims returns xs with every sample cut or zero-padded to dims.
func withDims(xs [][]float64, dims int) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = make([]float64, dims)
		copy(out[i], x)
	}
	return out
}

// TestShardRejectsWrongDimension sends well-formed batches one feature
// short and one feature long to a 3-dim shard at both precisions. They
// once crashed the f64 shard, were acked with results scored against
// stale features by the q16 shard, or crashed it. Each must now come
// back as a remote error before any stream is created, and the same
// connection must then ack a correct batch for that stream, bit for bit
// as a local replay.
func TestShardRejectsWrongDimension(t *testing.T) {
	template, stream := testTemplate(t)
	xs := stream[:100]
	for _, prec := range []edgedrift.Precision{edgedrift.Float64, edgedrift.Fixed16} {
		t.Run(prec.String(), func(t *testing.T) {
			s, addr := startShard(t, Config{Template: template, Precision: prec})
			ref := referenceFleet(t, template, prec, "d2", "d4")
			cl, err := wire.DialClient(addr, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i, dims := range []int{2, 4} {
				id := fmt.Sprintf("d%d", dims)
				var re *wire.RemoteError
				if _, _, err := cl.SendBatch(nil, id, withDims(xs, dims)); !errors.As(err, &re) || !strings.Contains(re.Msg, "sample dimension") {
					t.Fatalf("%d-dim batch: err = %v, want a remote sample-dimension error", dims, err)
				}
				if n := s.Fleet().Len(); n != i {
					t.Fatalf("%d-dim batch: shard holds %d streams, want %d", dims, n, i)
				}
				got, shed, err := cl.SendBatch(nil, id, xs)
				if err != nil || shed != 0 {
					t.Fatalf("correct batch after the %d-dim one: shed %d, err %v", dims, shed, err)
				}
				want, err := ref.ProcessBatch(id, xs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: results after the %d-dim batch diverge from local replay", id, dims)
				}
			}
		})
	}
}

// TestShardMigrateInRejectsOtherDimension hands a 3-dim shard two
// checksum-valid members that take 5-dim samples: a monitor, and a
// demoted 3-dim monitor whose f32 twin takes 5-dim samples. The first
// was once accepted and crashed the shard on the stream's next batch.
// Each must be refused with a remote error and register nothing; the
// same connection then acks a correct batch for that stream, served by
// a fresh clone of the template.
func TestShardMigrateInRejectsOtherDimension(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template})
	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	fiveDim := func(prec edgedrift.Precision) *edgedrift.Monitor {
		src := synth.NewGaussian([][]float64{{0, 0, 0, 0, 0}, {5, 5, 5, 5, 5}}, 0.3)
		trainX, trainY := synth.TrainingSet(src, 300, rng.New(3))
		mon, err := edgedrift.New(edgedrift.Options{
			Classes: 2, Inputs: 5, Hidden: 8, Window: 50, Seed: 1, Precision: prec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Fit(trainX, trainY); err != nil {
			t.Fatal(err)
		}
		return mon
	}
	local := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := local.Add("plain", fiveDim(edgedrift.Float64)); err != nil {
		t.Fatal(err)
	}
	plain, err := local.ExportMember("plain")
	if err != nil {
		t.Fatal(err)
	}
	// A degraded member (kind 2): the twin's precision byte, the origin
	// artifact, the f32 twin on the f64 wire, then the payload checksum.
	var degraded bytes.Buffer
	w := ckpt.NewWriter(&degraded)
	w.Write(append([]byte{byte(edgedrift.Float32)}, template...))
	if err := fiveDim(edgedrift.Float32).Save(w, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFooter(); err != nil {
		t.Fatal(err)
	}

	for _, st := range []wire.State{
		{Stream: "plain", Kind: plain.Kind, Samples: plain.Samples, Payload: plain.Payload},
		{Stream: "degraded", Kind: 2, Payload: degraded.Bytes()},
	} {
		var re *wire.RemoteError
		if err := cl.MigrateIn(st); !errors.As(err, &re) {
			t.Fatalf("%s: migrate-in err = %v, want a remote error", st.Stream, err)
		}
		if n := s.Fleet().Len(); n != 0 || s.Stats().MigratedIn != 0 {
			t.Fatalf("%s: refused member left %d streams, %d migrations in", st.Stream, n, s.Stats().MigratedIn)
		}
		if _, shed, err := cl.SendBatch(nil, st.Stream, stream[:100]); err != nil || shed != 0 {
			t.Fatalf("%s: correct batch after the refusal: shed %d, err %v", st.Stream, shed, err)
		}
		if _, _, ok := s.Fleet().Remove(st.Stream); !ok {
			t.Fatalf("%s: the correct batch did not create the stream", st.Stream)
		}
	}
}

// TestShardQ16Members runs a q16 shard end to end — template quantised
// at member creation, results bit-identical to a local q16 replay, and
// migration of the q16 member to a second shard.
func TestShardQ16Members(t *testing.T) {
	template, stream := testTemplate(t)
	cfg := Config{Template: template, Precision: edgedrift.Fixed16}
	_, addrA := startShard(t, cfg)
	_, addrB := startShard(t, cfg)
	ref := referenceFleet(t, template, edgedrift.Fixed16, "q")

	clA, err := wire.DialClient(addrA, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	clB, err := wire.DialClient(addrB, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()

	run := func(cl *wire.Client, xs [][]float64) []core.Result {
		t.Helper()
		got, shed, err := cl.SendBatch(nil, "q", xs)
		if err != nil || shed != 0 {
			t.Fatal(err, shed)
		}
		return got
	}
	got := run(clA, stream[:800])
	want, err := ref.ProcessBatch("q", stream[:800])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("q16 shard results diverge from local q16 replay")
	}
	st, err := clA.MigrateOut("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != 1 {
		t.Fatalf("q16 member exported with kind %d, want 1", st.Kind)
	}
	if err := clB.MigrateIn(st); err != nil {
		t.Fatal(err)
	}
	got = run(clB, stream[800:2000])
	want, err = ref.ProcessBatch("q", stream[800:2000])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("migrated q16 member diverged from unmigrated replay")
	}
}

// TestShardMetricsExposition checks the shard families render alongside
// the fleet roll-up.
func TestShardMetricsExposition(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template})
	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.SendBatch(nil, "s", stream[:100]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"edgedrift_samples_total 100",
		"edgedrift_shard_batches_total 1",
		"edgedrift_shard_shed_samples_total 0",
		"edgedrift_shard_queue_depth 0",
		"edgedrift_shard_migrations_out_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestShardMergeProtocol drives the cooperative control frames over
// TCP: FetchState is non-destructive (the donor keeps serving, no
// tombstone), MergeSeed replaces the target's model and is fenced by
// the fingerprint check, and both counters reach the exposition.
func TestShardMergeProtocol(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template, Cohort: "fans"})

	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Create two monitoring streams with pre-drift data.
	for _, id := range []string{"t", "p"} {
		if _, _, err := cl.SendBatch(nil, id, stream[:200]); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := s.Fleet().Cohort("p"); got != "fans" {
		t.Fatalf("shard-created stream joined cohort %q, want fans", got)
	}

	ms, err := cl.FetchState("p")
	if err != nil {
		t.Fatal(err)
	}
	if ms.Stream != "p" || len(ms.States) != 1 || ms.Fingerprint == 0 {
		t.Fatalf("fetch reply: stream=%q states=%d fprint=%#x", ms.Stream, len(ms.States), ms.Fingerprint)
	}
	// Non-destructive: the donor still serves batches afterwards.
	if _, _, err := cl.SendBatch(nil, "p", stream[200:300]); err != nil {
		t.Fatalf("donor stopped serving after fetch: %v", err)
	}

	// A wrong fingerprint must be rejected before any state is touched.
	bad := ms
	bad.Stream = "t"
	bad.Fingerprint = ms.Fingerprint + 1
	var re *wire.RemoteError
	if err := cl.MergeSeed(bad); !errors.As(err, &re) {
		t.Fatalf("fingerprint mismatch: err = %v, want RemoteError", err)
	}

	seed := ms
	seed.Stream = "t"
	if err := cl.MergeSeed(seed); err != nil {
		t.Fatal(err)
	}
	// The seeded stream keeps serving.
	if _, _, err := cl.SendBatch(nil, "t", stream[200:300]); err != nil {
		t.Fatalf("target stopped serving after seed: %v", err)
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"edgedrift_shard_merge_fetches_total 1",
		"edgedrift_shard_merge_seeds_total 1",
		"edgedrift_merges_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Fetching an unknown stream fails loudly, in protocol sync.
	if _, err := cl.FetchState("nosuch"); !errors.As(err, &re) {
		t.Fatalf("fetch of unknown stream: err = %v, want RemoteError", err)
	}
}

// TestShardCohortRejectsQ16 pins the loud incompatibility: a cohort
// needs mergeable members, so a Q16.16 shard with a cohort must refuse
// to start.
func TestShardCohortRejectsQ16(t *testing.T) {
	template, _ := testTemplate(t)
	_, err := New(Config{Template: template, Precision: edgedrift.Fixed16, Cohort: "fans"})
	if err == nil {
		t.Fatal("Q16.16 shard with a cohort started")
	}
}
