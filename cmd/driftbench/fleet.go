package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/workpool"
)

// runFleet is the `driftbench fleet` subcommand: it replays the NSL-KDD
// surrogate as K interleaved streams (sample i goes to stream i mod K),
// registers one trained monitor per stream in a Fleet, and measures
// per-stream and aggregate throughput while drift events fan in on the
// single subscriber channel. One monitor is trained once and cloned
// K times through its serialised artifact, so fleet setup cost is
// deserialisation, not K trainings.
func runFleet(args []string) int {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	streams := fs.Int("streams", 8, "independent streams (NSL-KDD test set interleaved round-robin)")
	shards := fs.Int("shards", 8, "fleet registry shard count")
	parallel := fs.Int("parallel", 0, "streams processed concurrently (0 means GOMAXPROCS)")
	batch := fs.Int("batch", 512, "samples per ProcessBatch call")
	seed := fs.Uint64("seed", 1, "random seed for the shared trained monitor")
	precision := fs.String("precision", "f64", "member numeric backend: f64, f32, or q16 (fixed-point inference port)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *streams < 1 || *batch < 1 {
		fmt.Fprintln(os.Stderr, "fleet: -streams and -batch must be >= 1")
		return 2
	}
	prec, err := edgedrift.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: unknown precision %q; use f64, f32 or q16\n", *precision)
		return 2
	}

	ds := nslkdd.Generate(nslkdd.DefaultParams())
	// The Q16.16 port is quantised from a fitted monitor, so the shared
	// artifact is trained (and serialised) at f64 and each clone is
	// quantised after loading; f32 trains and ships at f32 directly.
	art, err := trainTemplate(*seed, prec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: train shared monitor: %v\n", err)
		return 1
	}

	f := edgedrift.NewFleet(edgedrift.FleetConfig{
		Shards: *shards, Workers: *parallel, EventBuffer: 4 * *streams,
	})
	events := f.Events()

	parts := make([][][]float64, *streams)
	for i, x := range ds.TestX {
		parts[i%*streams] = append(parts[i%*streams], x)
	}
	ids := make([]string, *streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%03d", i)
		m, err := edgedrift.LoadMonitor(bytes.NewReader(art))
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: clone monitor: %v\n", err)
			return 1
		}
		if prec == edgedrift.Fixed16 {
			st, err := m.QuantizeQ16()
			if err != nil {
				fmt.Fprintf(os.Stderr, "fleet: quantize member: %v\n", err)
				return 1
			}
			if err := f.AddStage(ids[i], st); err != nil {
				fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
				return 1
			}
			continue
		}
		if err := f.Add(ids[i], m); err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
	}

	durs := make([]time.Duration, *streams)
	pool := workpool.New(*parallel)
	wall := time.Now()
	for i := range ids {
		i := i
		pool.Go(func() error {
			part := parts[i]
			start := time.Now()
			for lo := 0; lo < len(part); lo += *batch {
				hi := lo + *batch
				if hi > len(part) {
					hi = len(part)
				}
				if _, err := f.ProcessBatch(ids[i], part[lo:hi]); err != nil {
					return err
				}
			}
			durs[i] = time.Since(start)
			return nil
		})
	}
	if err := pool.Wait(); err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		return 1
	}
	elapsed := time.Since(wall)

	rates := make([]float64, 0, *streams)
	for i, d := range durs {
		if d > 0 && len(parts[i]) > 0 {
			rates = append(rates, float64(len(parts[i]))/d.Seconds())
		}
	}
	sort.Float64s(rates)
	fanned := 0
	for {
		select {
		case <-events:
			fanned++
			continue
		default:
		}
		break
	}
	fired := 0
	var drifts uint64
	for _, id := range ids {
		_, d, err := f.MemberStats(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		if d > 0 {
			fired++
		}
		drifts += d
	}
	h := f.Health()

	fmt.Printf("fleet: %d streams over %d shards, %d worker(s), %d-sample batches, %s members\n",
		*streams, *shards, pool.Workers(), *batch, prec)
	fmt.Printf("replayed %d NSL-KDD samples (%d per stream, drift at sample %d of the interleaved stream)\n",
		len(ds.TestX), len(parts[0]), ds.DriftAt)
	fmt.Printf("aggregate throughput: %.0f samples/s (wall %.3fs)\n",
		float64(len(ds.TestX))/elapsed.Seconds(), elapsed.Seconds())
	if len(rates) > 0 {
		fmt.Printf("per-stream throughput: min %.0f, median %.0f, max %.0f samples/s\n",
			rates[0], rates[len(rates)/2], rates[len(rates)-1])
	}
	fmt.Printf("drift: %d of %d streams fired, %d detections total, %d events fanned in, %d dropped\n",
		fired, *streams, drifts, fanned, f.EventsDropped())
	fmt.Printf("fleet memory: %.1f kB retained; %s\n",
		float64(f.MemoryBytes())/1024, h.String())
	return 0
}
