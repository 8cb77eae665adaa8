package router

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/rng"
	"edgedrift/internal/shard"
	"edgedrift/internal/wire"
)

func TestRingPlacement(t *testing.T) {
	shards := []string{"10.0.0.1:7600", "10.0.0.2:7600", "10.0.0.3:7600"}
	r := newRing(shards, 64)
	owned := map[string]int{}
	placed := map[string]string{}
	for i := 0; i < 300; i++ {
		s := fmt.Sprintf("stream-%d", i)
		addr := r.lookup(s)
		if r.lookup(s) != addr {
			t.Fatal("lookup is not deterministic")
		}
		owned[addr]++
		placed[s] = addr
	}
	for _, a := range shards {
		if owned[a] == 0 {
			t.Fatalf("shard %s owns no streams: %v", a, owned)
		}
	}
	// Adding a shard must remap only a minority of streams.
	grown := newRing(append(append([]string(nil), shards...), "10.0.0.4:7600"), 64)
	moved := 0
	for s, was := range placed {
		if grown.lookup(s) != was {
			moved++
		}
	}
	if moved == 0 || moved > 150 {
		t.Fatalf("adding a 4th shard moved %d/300 streams, want ~75", moved)
	}
}

// testTemplate trains a small monitor on synthetic Gaussian data and
// returns its artifact plus a drifted stream to replay.
func testTemplate(t testing.TB) (template []byte, stream [][]float64) {
	t.Helper()
	oldC := synth.NewGaussian([][]float64{{0, 0, 0}, {5, 5, 5}}, 0.3)
	newC := synth.ShiftedGaussian(oldC, 4)
	r := rng.New(7)
	trainX, trainY := synth.TrainingSet(oldC, 300, r)
	st, err := synth.Generate(oldC, newC, 2000, synth.Spec{Kind: synth.Sudden, Start: 1000}, r)
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

// startTier spins up n shards and a router over them, all on ephemeral
// ports, and returns the router plus the shard addresses.
func startTier(t *testing.T, n int, template []byte) (*Router, string, []string) {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		s, err := shard.New(shard.Config{Template: template})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		t.Cleanup(func() { s.Close() })
		addrs[i] = ln.Addr().String()
	}
	r, err := New(Config{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Close() })
	return r, ln.Addr().String(), addrs
}

// localReference replays the template locally for one stream.
func localReference(t testing.TB, template []byte) *edgedrift.Fleet {
	t.Helper()
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	mon, err := edgedrift.LoadMonitor(bytes.NewReader(template))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add("ref", mon); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRouterEndToEnd is the distributed tier's integration test: two
// shards behind a router, four streams driven concurrently through it,
// one stream live-migrated mid-stream. Every result — including the
// whole post-migration tail — must be bit-identical to a local,
// never-migrated replay, with zero lost or double-counted samples.
func TestRouterEndToEnd(t *testing.T) {
	template, stream := testTemplate(t)
	r, addr, shards := startTier(t, 2, template)

	const nStreams, batchLen, total = 4, 100, 2000
	var wg sync.WaitGroup
	errs := make(chan error, nStreams)
	for i := 0; i < nStreams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", i)
			cl, err := wire.DialClient(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			ref := localReference(t, template)
			for off := 0; off < total; off += batchLen {
				// Stream s1 migrates to the other shard at sample 800 —
				// mid-stream, pre-drift, at a batch boundary.
				if i == 1 && off == 800 {
					from := r.Where(id)
					to := shards[0]
					if from == to {
						to = shards[1]
					}
					if err := r.Migrate(id, to); err != nil {
						errs <- err
						return
					}
					if r.Where(id) != to {
						errs <- fmt.Errorf("routing table not flipped for %s", id)
						return
					}
				}
				xs := stream[off : off+batchLen]
				got, shed, err := cl.SendBatch(nil, id, xs)
				if err != nil {
					errs <- fmt.Errorf("%s@%d: %w", id, off, err)
					return
				}
				if shed != 0 {
					errs <- fmt.Errorf("%s@%d: %d samples shed under backpressure policy", id, off, shed)
					return
				}
				want, err := ref.ProcessBatch("ref", xs)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("%s@%d: routed results diverge from local replay", id, off)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Conservation across the whole tier: every sample sent was
	// processed exactly once, and exactly one migration happened.
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != nStreams*total {
		t.Fatalf("tier processed %d samples, sent %d", st.Samples, nStreams*total)
	}
	if st.ShedSamples != 0 || st.ShedBatches != 0 {
		t.Fatalf("unexpected shedding: %+v", st)
	}
	if st.MigratedOut != 1 || st.MigratedIn != 1 {
		t.Fatalf("migration counters: out=%d in=%d, want 1/1", st.MigratedOut, st.MigratedIn)
	}
	if st.Streams != nStreams {
		t.Fatalf("tier has %d streams, want %d", st.Streams, nStreams)
	}

	// The migrated stream must sit off its ring placement — migration
	// overrides consistent hashing — while the others stay on theirs.
	table := r.Streams()
	if table["s1"] == r.ring.lookup("s1") {
		t.Fatalf("s1 still on its ring home %s after migration", table["s1"])
	}
	for _, id := range []string{"s0", "s2", "s3"} {
		if table[id] != r.ring.lookup(id) {
			t.Fatalf("%s moved off its ring home without a migration", id)
		}
	}
}

// TestMigrateRejectsAndRecovers pins the failure paths: an unknown
// target is refused outright, and a checkpoint-refused export (member
// mid-reconstruction) leaves the stream serving on its source shard.
func TestMigrateRejectsAndRecovers(t *testing.T) {
	template, stream := testTemplate(t)
	r, addr, shards := startTier(t, 2, template)

	if err := r.Migrate("s", "127.0.0.1:1"); err == nil {
		t.Fatal("migration to an unknown shard accepted")
	}

	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := localReference(t, template)
	check := func(xs [][]float64) {
		t.Helper()
		got, _, err := cl.SendBatch(nil, "s", xs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ProcessBatch("ref", xs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("results diverge from local replay")
		}
	}
	// Drive into reconstruction (drift at 1000, NRecon 300): the export
	// must be refused at a mid-reconstruction boundary.
	for off := 0; off < 1200; off += 100 {
		check(stream[off : off+100])
	}
	home := r.Where("s")
	to := shards[0]
	if home == to {
		to = shards[1]
	}
	err = r.Migrate("s", to)
	if err == nil {
		t.Fatal("export mid-reconstruction should be refused")
	}
	if !strings.Contains(err.Error(), "reconstruction") {
		t.Fatalf("unexpected migrate error: %v", err)
	}
	if r.Where("s") != home {
		t.Fatal("failed migration flipped the routing entry")
	}
	// The stream keeps serving, bit-identically, on its source.
	for off := 1200; off < 2000; off += 100 {
		check(stream[off : off+100])
	}
}

// TestAdminHandler drives the control plane over HTTP: migrate a
// stream, read the routing table, scrape metrics.
func TestAdminHandler(t *testing.T) {
	template, stream := testTemplate(t)
	r, addr, shards := startTier(t, 2, template)
	admin := httptest.NewServer(r.AdminHandler())
	defer admin.Close()

	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.SendBatch(nil, "web", stream[:100]); err != nil {
		t.Fatal(err)
	}

	to := shards[0]
	if r.Where("web") == to {
		to = shards[1]
	}
	resp, err := http.PostForm(admin.URL+"/migrate", url.Values{"stream": {"web"}, "to": {to}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/migrate -> %s", resp.Status)
	}
	if r.Where("web") != to {
		t.Fatal("admin migrate did not move the stream")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}
	if got := get("/streams"); !strings.Contains(got, "web "+to) {
		t.Fatalf("/streams = %q, want web on %s", got, to)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		"edgedrift_route_batches_total 1",
		"edgedrift_route_migrations_total 1",
		"edgedrift_route_shards 2",
		"edgedrift_route_streams 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCrossShardRecovery is the cooperative tier's integration test:
// cohort-configured shards behind a router, peer streams serving
// concurrently while the router fetches their states non-destructively
// and seeds the target under its entry fence. Run under -race.
func TestCrossShardRecovery(t *testing.T) {
	template, stream := testTemplate(t)
	addrs := make([]string, 2)
	for i := range addrs {
		s, err := shard.New(shard.Config{Template: template, Cohort: "fans"})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		t.Cleanup(func() { s.Close() })
		addrs[i] = ln.Addr().String()
	}
	r, err := New(Config{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Close() })
	addr := ln.Addr().String()

	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ids := []string{"t", "p0", "p1"}
	for _, id := range ids {
		if _, _, err := cl.SendBatch(nil, id, stream[:400]); err != nil {
			t.Fatal(err)
		}
	}
	// Force the recovery across shards: make sure at least one peer
	// lives on a different shard than the target.
	if r.Where("p0") == r.Where("t") && r.Where("p1") == r.Where("t") {
		to := addrs[0]
		if r.Where("p1") == to {
			to = addrs[1]
		}
		if err := r.Migrate("p1", to); err != nil {
			t.Fatal(err)
		}
	}

	// Peers keep serving (bit-identically) while their state is being
	// fetched: drive them concurrently with the recovery.
	var wg sync.WaitGroup
	errs := make(chan error, len(ids))
	for _, id := range []string{"p0", "p1"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			pcl, err := wire.DialClient(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer pcl.Close()
			ref := localReference(t, template)
			if _, err := ref.ProcessBatch("ref", stream[:400]); err != nil {
				errs <- err
				return
			}
			for off := 400; off < 900; off += 100 {
				xs := stream[off : off+100]
				got, _, err := pcl.SendBatch(nil, id, xs)
				if err != nil {
					errs <- fmt.Errorf("%s@%d: %w", id, off, err)
					return
				}
				want, err := ref.ProcessBatch("ref", xs)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("%s@%d: donor results diverge during recovery", id, off)
					return
				}
			}
			errs <- nil
		}(id)
	}
	for i := 0; i < 3; i++ {
		if err := r.Recover("t", []string{"p0", "p1"}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := r.recoveries.Load(); got != 3 {
		t.Fatalf("recoveries = %d, want 3", got)
	}
	// The recovered stream keeps serving through the router.
	if _, _, err := cl.SendBatch(nil, "t", stream[400:500]); err != nil {
		t.Fatalf("recovered stream stopped serving: %v", err)
	}

	// Failure paths: unknown peer, and a self-only peer list.
	if err := r.Recover("t", []string{"nosuch"}); err == nil {
		t.Fatal("recovery from an unknown peer succeeded")
	}
	if err := r.Recover("t", []string{"t"}); err == nil {
		t.Fatal("self-recovery collected zero states but succeeded")
	}

	// The admin endpoint drives the same path.
	admin := httptest.NewServer(r.AdminHandler())
	defer admin.Close()
	resp, err := http.PostForm(admin.URL+"/recover",
		url.Values{"stream": {"t"}, "peers": {"p0,p1"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/recover -> %s", resp.Status)
	}
	mresp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(mbuf.String(), "edgedrift_route_recoveries_total 4") {
		t.Fatalf("metrics missing recovery counter:\n%s", mbuf.String())
	}
}

// TestRouterForwardZeroAllocs pins the relay's allocation contract: a
// steady-state batch round trip through router and shard (the shard
// running it inline) allocates nothing anywhere, client included.
func TestRouterForwardZeroAllocs(t *testing.T) {
	template, stream := testTemplate(t)
	_, addr, _ := startTier(t, 1, template)
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
		roundTrip() // create the stream, dial the pool, size every buffer
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Fatalf("steady-state relay: %v allocations per round trip, want 0", n)
	}
}

// TestPipelinedOrder sends bursts and idle gaps of batches for several
// streams down one pipelined connection, straight to a shard and
// through the router, so the shard's batches cross between its inline
// and queued paths. Every stream's results must equal a local replay:
// per-connection FIFO holds on both paths and across the switch.
func TestPipelinedOrder(t *testing.T) {
	template, stream := testTemplate(t)
	_, raddr, shards := startTier(t, 1, template)
	for _, tc := range []struct{ name, addr string }{{"shard", shards[0]}, {"router", raddr}} {
		t.Run(tc.name, func(t *testing.T) {
			pipelinedOrder(t, tc.addr, tc.name, template, stream)
		})
	}
}

func pipelinedOrder(t *testing.T, addr, prefix string, template []byte, stream [][]float64) {
	const nStreams, perStream = 4, 1600
	type batch struct {
		id string
		xs [][]float64
	}
	// Each stream walks the drifted stream from its own offset (through
	// the drift and the reconstruction) in batches of 1–40 samples;
	// the streams' batches are then interleaved at random.
	r := rng.New(3)
	queues := make([][]batch, nStreams)
	for i := range queues {
		id := fmt.Sprintf("%s-%d", prefix, i)
		for off := 0; off < perStream; {
			n := min(1+r.Intn(40), perStream-off)
			start := i*50 + off
			queues[i] = append(queues[i], batch{id, stream[start : start+n]})
			off += n
		}
	}
	var plan []batch
	for len(queues) > 0 {
		i := r.Intn(len(queues))
		plan = append(plan, queues[i][0])
		if queues[i] = queues[i][1:]; len(queues[i]) == 0 {
			queues = append(queues[:i], queues[i+1:]...)
		}
	}

	conn, err := wire.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got := map[string][]edgedrift.Result{}
	readErr := make(chan error, 1)
	go func() {
		for range plan {
			typ, p, err := conn.ReadFrame()
			if err != nil {
				readErr <- err
				return
			}
			if typ != wire.TypeBatchAck {
				readErr <- fmt.Errorf("reply %#x %q, want a batch ack", typ, p)
				return
			}
			id, rs, err := wire.ParseResults(p, nil)
			if err != nil {
				readErr <- err
				return
			}
			got[id] = append(got[id], rs...)
		}
		readErr <- nil
	}()
	// Bursts of 1–8 back-to-back batches queue behind each other; an
	// idle gap after a burst lets the next batch run inline again.
	var payload []byte
	for i := 0; i < len(plan); {
		for end := min(i+1+r.Intn(8), len(plan)); i < end; i++ {
			if payload, err = wire.AppendBatch(payload[:0], plan[i].id, plan[i].xs); err != nil {
				t.Fatal(err)
			}
			if err := conn.WriteFrame(wire.TypeBatch, payload); err != nil {
				t.Fatal(err)
			}
		}
		if r.Intn(2) == 0 {
			time.Sleep(time.Duration(r.Intn(1000)) * time.Microsecond)
		}
	}
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}

	want := map[string][]edgedrift.Result{}
	refs := map[string]*edgedrift.Monitor{}
	for _, b := range plan {
		if refs[b.id] == nil {
			mon, err := edgedrift.LoadMonitor(bytes.NewReader(template))
			if err != nil {
				t.Fatal(err)
			}
			refs[b.id] = mon
		}
		want[b.id] = append(want[b.id], refs[b.id].ProcessBatch(nil, b.xs)...)
	}
	if len(got) != nStreams {
		t.Fatalf("acks for %d streams, want %d", len(got), nStreams)
	}
	for id, w := range want {
		if !reflect.DeepEqual(got[id], w) {
			t.Fatalf("%s: pipelined results diverge from local replay", id)
		}
	}
}
