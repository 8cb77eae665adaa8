package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edgedrift/internal/stats"

	"edgedrift"
	"edgedrift/internal/core"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/router"
	"edgedrift/internal/wire"
)

// loadgenPoint is one row of the BENCH_7.json scaling curve.
type loadgenPoint struct {
	Shards       int     `json:"shards"`
	Streams      int     `json:"streams"`
	SamplesPerS  float64 `json:"samples_per_s"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	AckedSamples int64   `json:"acked_samples"`
	ShedSamples  int64   `json:"shed_samples"`
	Migrations   int     `json:"migrations"`
	AccountingOK bool    `json:"accounting_ok"`
	ElapsedS     float64 `json:"elapsed_s"`
}

type loadgenReport struct {
	Bench            string         `json:"bench"`
	GeneratedAt      string         `json:"generated_at"`
	Precision        string         `json:"precision"`
	Streams          int            `json:"streams"`
	SamplesPerStream int            `json:"samples_per_stream"`
	Batch            int            `json:"batch"`
	Window           int            `json:"window"`
	Points           []loadgenPoint `json:"points"`
}

// runLoadgen is the `driftbench loadgen` subcommand: it spawns K shard
// processes (re-executing this binary), fronts them with an in-process
// router, and drives M synthetic streams through the tier with a
// pipelined send window per stream — then repeats for each K in
// -shard-range and writes the scaling curve (aggregate samples/s and
// p99 ingest latency per point) to -json. When K > 1 it live-migrates
// one stream mid-run and folds the result into the point. Every point
// asserts the conservation identity sent == acked + shed exactly.
func runLoadgen(args []string) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	shardRange := fs.String("shard-range", "1,2,4", "comma-separated shard counts, one scaling point each")
	streams := fs.Int("streams", 16, "synthetic streams driven concurrently")
	samples := fs.Int("samples", 20000, "samples per stream per point")
	batch := fs.Int("batch", 256, "samples per batch frame")
	window := fs.Int("window", 8, "pipelined batches in flight per stream")
	jsonPath := fs.String("json", "BENCH_7.json", "write the scaling curve to this file")
	outDir := fs.String("out", "loadgen-out", "scratch directory (template artifact, shard logs)")
	precision := fs.String("precision", "f64", "shard member backend: f64, f32, or q16")
	seed := fs.Uint64("seed", 1, "random seed for the trained template")
	queueDepth := fs.Int("queue-depth", 64, "per-connection shard queue bound in batches")
	shedAfter := fs.Duration("shed-after", 0, "shard admission policy (see `driftbench shard`)")
	pressureBudget := fs.Duration("pressure-latency-budget", 0, "run each shard under the adaptive capacity governor with this per-batch p99 budget (0 disables)")
	pressureInterval := fs.Duration("pressure-interval", 0, "governor sampling interval in spawned shards (0 means 500ms)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	prec, err := edgedrift.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: unknown precision %q\n", *precision)
		return 2
	}
	var counts []int
	for _, s := range strings.Split(*shardRange, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "loadgen: bad -shard-range entry %q\n", s)
			return 2
		}
		counts = append(counts, n)
	}
	if *streams < 1 || *samples < *batch || *batch < 1 || *window < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: need streams >= 1, batch >= 1, window >= 1, samples >= batch")
		return 2
	}

	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "loadgen: training template (%s)...\n", prec)
	tmpl, err := trainTemplate(*seed, prec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: train template: %v\n", err)
		return 1
	}
	tmplPath := filepath.Join(*outDir, "template.bin")
	if err := os.WriteFile(tmplPath, tmpl, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	// Drive data: the NSL-KDD surrogate test stream, cycled per stream.
	data := nslkdd.Generate(nslkdd.DefaultParams()).TestX

	report := loadgenReport{
		Bench:       "distributed-serve-tier",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Precision:   prec.String(), Streams: *streams,
		SamplesPerStream: *samples, Batch: *batch, Window: *window,
	}
	for _, k := range counts {
		pt, err := runLoadgenPoint(bin, tmplPath, data, pointConfig{
			shards: k, streams: *streams, samples: *samples, batch: *batch,
			window: *window, precision: *precision, queueDepth: *queueDepth,
			shedAfter: *shedAfter, pressureBudget: *pressureBudget,
			pressureInterval: *pressureInterval,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %d shards: %v\n", k, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "loadgen: %d shards: %.0f samples/s, p99 %.2f ms, shed %d, migrations %d, accounting_ok=%v\n",
			pt.Shards, pt.SamplesPerS, pt.P99Ms, pt.ShedSamples, pt.Migrations, pt.AccountingOK)
		report.Points = append(report.Points, pt)
	}

	if err := writeJSON(*jsonPath, report); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", *jsonPath)
	return 0
}

type pointConfig struct {
	shards, streams, samples, batch, window int
	precision                               string
	queueDepth                              int
	shedAfter                               time.Duration
	// pressureBudget > 0 runs each spawned shard under the adaptive
	// capacity governor with that per-batch ingest p99 budget,
	// sampling every pressureInterval.
	pressureBudget   time.Duration
	pressureInterval time.Duration
}

// runLoadgenPoint measures one shard count: spawn the shard processes,
// front them with an in-process router, drive every stream, tear down.
func runLoadgenPoint(bin, tmplPath string, data [][]float64, cfg pointConfig) (loadgenPoint, error) {
	pt := loadgenPoint{Shards: cfg.shards, Streams: cfg.streams}

	// Spawn the shard processes and scrape their ephemeral addresses.
	var procs []*exec.Cmd
	var shardAddrs []string
	defer func() {
		for _, p := range procs {
			stopProc(p)
		}
	}()
	for i := 0; i < cfg.shards; i++ {
		proc, addr, err := spawnShard(bin, tmplPath, cfg)
		if err != nil {
			return pt, err
		}
		procs = append(procs, proc)
		shardAddrs = append(shardAddrs, addr)
	}

	rt, err := router.New(router.Config{Shards: shardAddrs})
	if err != nil {
		return pt, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return pt, err
	}
	go rt.Serve(ln)
	defer rt.Close()
	routerAddr := ln.Addr().String()

	var ackedTotal atomic.Int64
	results := make([]driveResult, cfg.streams)
	start := time.Now()

	// Live migration mid-run: once half the samples are acked, move
	// stream-000 to whichever shard it is not on. Export can be refused
	// at a mid-reconstruction boundary, so retry briefly.
	migDone := make(chan int, 1)
	if cfg.shards > 1 {
		total := int64(cfg.streams) * int64(cfg.samples/cfg.batch*cfg.batch)
		go func() {
			for ackedTotal.Load() < total/2 {
				time.Sleep(2 * time.Millisecond)
			}
			from := rt.Where("stream-000")
			to := shardAddrs[0]
			if from == to {
				to = shardAddrs[1]
			}
			for attempt := 0; attempt < 50; attempt++ {
				if err := rt.Migrate("stream-000", to); err == nil {
					migDone <- 1
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			migDone <- 0
		}()
	} else {
		migDone <- 0
	}

	var wg sync.WaitGroup
	for i := 0; i < cfg.streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("stream-%03d", i)
			// Offset each stream into the data so shards don't process
			// identical sample sequences in lockstep.
			results[i] = driveStream(routerAddr, id, data, i*977, cfg, &ackedTotal)
		}(i)
	}
	wg.Wait()
	pt.Migrations = <-migDone
	pt.ElapsedS = time.Since(start).Seconds()

	var rtts []float64
	sent := int64(0)
	accountingOK := true
	for _, r := range results {
		if r.err != nil {
			return pt, r.err
		}
		pt.AckedSamples += r.acked
		pt.ShedSamples += r.shed
		sent += r.sent
		if r.acked+r.shed != r.sent {
			accountingOK = false
		}
		rtts = append(rtts, r.rtts...)
	}
	// Cross-check against the tier's own books: every acked sample was
	// processed exactly once (migration must not lose or double-count).
	st, err := rt.Stats()
	if err != nil {
		return pt, err
	}
	if int64(st.Samples) != pt.AckedSamples || st.ShedSamples != uint64(pt.ShedSamples) {
		accountingOK = false
	}
	pt.AccountingOK = accountingOK
	pt.SamplesPerS = float64(pt.AckedSamples) / pt.ElapsedS
	pt.P50Ms = percentile(rtts, 0.50)
	pt.P99Ms = percentile(rtts, 0.99)
	return pt, nil
}

type driveResult struct {
	sent, acked, shed int64
	rtts              []float64 // per-batch round-trip, milliseconds
	err               error
}

// driveStream pushes one stream's batches through the tier with a
// pipelined send window: the sender keeps up to cfg.window batches in
// flight while the receiver matches acks in FIFO order (the protocol
// is strictly ordered per connection) and records each round-trip.
func driveStream(addr, id string, data [][]float64, dataOff int, cfg pointConfig, ackedTotal *atomic.Int64) driveResult {
	var res driveResult
	conn, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		res.err = err
		return res
	}
	defer conn.Close()

	nBatches := cfg.samples / cfg.batch
	sendTimes := make(chan time.Time, cfg.window)
	recvDone := make(chan struct{})
	var recvErr error
	go func() {
		defer close(recvDone)
		var rs []core.Result
		for i := 0; i < nBatches; i++ {
			typ, p, err := conn.ReadFrame()
			if err != nil {
				recvErr = err
				return
			}
			res.rtts = append(res.rtts, time.Since(<-sendTimes).Seconds()*1000)
			switch typ {
			case wire.TypeBatchAck:
				var err error
				if _, rs, err = wire.ParseResults(p, rs[:0]); err != nil {
					recvErr = err
					return
				}
				res.acked += int64(len(rs))
				ackedTotal.Add(int64(len(rs)))
			case wire.TypeShed:
				_, n, err := wire.ParseShed(p)
				if err != nil {
					recvErr = err
					return
				}
				res.shed += int64(n)
			case wire.TypeError:
				recvErr = &wire.RemoteError{Msg: string(p)}
				return
			default:
				recvErr = fmt.Errorf("loadgen: unexpected reply type %#x", typ)
				return
			}
		}
	}()

	var payload []byte
	xs := make([][]float64, 0, cfg.batch)
	off := dataOff
send:
	for i := 0; i < nBatches; i++ {
		xs = xs[:0]
		for j := 0; j < cfg.batch; j++ {
			xs = append(xs, data[(off+j)%len(data)])
		}
		off += cfg.batch
		payload, err = wire.AppendBatch(payload[:0], id, xs)
		if err != nil {
			res.err = err
			break
		}
		// Blocks once cfg.window batches are outstanding.
		select {
		case sendTimes <- time.Now():
		case <-recvDone:
			break send
		}
		if err := conn.WriteFrame(wire.TypeBatch, payload); err != nil {
			res.err = err
			break
		}
		res.sent += int64(cfg.batch)
	}
	if res.err != nil {
		// Unblock the receiver — it would otherwise wait forever for
		// acks of batches that were never sent.
		conn.Close()
	}
	<-recvDone
	if res.err == nil {
		res.err = recvErr
	}
	return res
}

// spawnShard re-executes this binary as `driftbench shard` on port 0
// and scrapes the bound address from its first stdout line.
func spawnShard(bin, tmplPath string, cfg pointConfig) (*exec.Cmd, string, error) {
	args := []string{"shard",
		"-addr", "127.0.0.1:0",
		"-template", tmplPath,
		"-precision", cfg.precision,
		"-queue-depth", strconv.Itoa(cfg.queueDepth),
		"-shed-after", cfg.shedAfter.String(),
	}
	if cfg.pressureBudget > 0 {
		args = append(args,
			"-pressure-latency-budget", cfg.pressureBudget.String(),
			"-pressure-interval", cfg.pressureInterval.String(),
		)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " "); i >= 0 {
				addrCh <- line[i+1:]
			}
		}
		close(addrCh)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			stopProc(cmd)
			return nil, "", fmt.Errorf("shard process produced no listen address")
		}
		return cmd, addr, nil
	case <-time.After(2 * time.Minute):
		stopProc(cmd)
		return nil, "", fmt.Errorf("timed out waiting for shard to listen")
	}
}

// stopProc interrupts a shard process and reaps it, escalating to Kill
// if it ignores the signal.
func stopProc(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

// percentile reads the q-quantile from unsorted latency samples,
// deferring to the stats package instead of hand-rolling the index
// arithmetic.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}
