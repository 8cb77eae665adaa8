package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/mat"
)

// precisionBatches is the batch axis of the comparison: per-sample
// Process (the degenerate batch), a small block, and the scoring
// pipeline's full chunk.
var precisionBatches = []int{1, 8, 64}

// runPrecision is the `driftbench precision` subcommand: it trains one
// monitor per trainable backend (f64, f32) on the NSL-KDD surrogate,
// derives the Q16.16 port from the f64 monitor, and replays the test
// stream through each — per-sample and through the batched GEMM path at
// several batch sizes — reporting scoring throughput and the retained
// memory footprint side by side. -json writes the comparison as the
// BENCH_6 artifact tracked by CI (the batch=1 rows are the old BENCH_5
// measurement).
func runPrecision(args []string) int {
	fs := flag.NewFlagSet("precision", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "random seed for the trained monitors")
	repeat := fs.Int("repeat", 3, "test-stream replays per backend (first replay per backend is a discarded warm-up)")
	jsonPath := fs.String("json", "", "also write the comparison as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repeat < 1 {
		fmt.Fprintln(os.Stderr, "precision: -repeat must be >= 1")
		return 2
	}

	ds := nslkdd.Generate(nslkdd.DefaultParams())
	train := func(p edgedrift.Precision) (*edgedrift.Monitor, error) {
		mon, err := edgedrift.New(edgedrift.Options{
			Classes: 2, Inputs: nslkdd.Features, Hidden: 22, Window: 100, Seed: *seed,
			Precision: p,
		})
		if err != nil {
			return nil, err
		}
		return mon, mon.Fit(ds.TrainX, ds.TrainY)
	}

	type backend struct {
		name string
		s    edgedrift.BatchStreaming
		mem  int
	}
	// Each backend×batch cell gets its own freshly trained monitor so no
	// cell is perturbed by the drift/reconstruction state an earlier
	// replay left behind.
	build := func(name string) (backend, error) {
		switch name {
		case "f64", "f32":
			p := edgedrift.Float64
			if name == "f32" {
				p = edgedrift.Float32
			}
			m, err := train(p)
			if err != nil {
				return backend{}, err
			}
			return backend{name, m, m.MemoryBytes()}, nil
		default: // q16
			donor, err := train(edgedrift.Float64)
			if err != nil {
				return backend{}, err
			}
			q, err := donor.QuantizeQ16()
			if err != nil {
				return backend{}, err
			}
			return backend{name, q.(edgedrift.BatchStreaming), q.MemoryBytes()}, nil
		}
	}

	var rows []precisionRow
	for _, name := range []string{"f64", "f32", "q16"} {
		for _, bs := range precisionBatches {
			b, err := build(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "precision: build %s: %v\n", name, err)
				return 1
			}
			var best float64
			dst := make([]edgedrift.Result, 0, bs)
			for r := 0; r < *repeat+1; r++ {
				start := time.Now()
				if bs == 1 {
					for _, x := range ds.TestX {
						b.s.Process(x)
					}
				} else {
					for lo := 0; lo < len(ds.TestX); lo += bs {
						hi := lo + bs
						if hi > len(ds.TestX) {
							hi = len(ds.TestX)
						}
						dst = b.s.ProcessBatch(dst[:0], ds.TestX[lo:hi])
					}
				}
				rate := float64(len(ds.TestX)) / time.Since(start).Seconds()
				// Replay 0 warms caches (and, for f64/f32, settles any
				// post-drift reconstruction); keep the best steady-state rate.
				if r > 0 && rate > best {
					best = rate
				}
			}
			rows = append(rows, precisionRow{Precision: b.name, Batch: bs, SamplesPerSec: best, MemoryBytes: b.mem})
		}
	}

	fmt.Printf("precision: %d-sample NSL-KDD replay, best of %d after warm-up (f32 SIMD: %v)\n",
		len(ds.TestX), *repeat, mat.F32SIMD())
	base := rows[0].SamplesPerSec // f64 per-sample
	for _, r := range rows {
		fmt.Printf("%-4s batch=%-3d %12.0f samples/s  %6.2fx f64  %8.1f kB retained\n",
			r.Precision, r.Batch, r.SamplesPerSec, r.SamplesPerSec/base, float64(r.MemoryBytes)/1024)
	}

	if *jsonPath != "" {
		sum := precisionSummary{
			Samples:  len(ds.TestX),
			Repeat:   *repeat,
			F32SIMD:  mat.F32SIMD(),
			Backends: rows,
		}
		if err := writeJSON(*jsonPath, sum); err != nil {
			fmt.Fprintf(os.Stderr, "precision: %v\n", err)
			return 1
		}
	}
	return 0
}

// precisionRow is one backend×batch cell of the BENCH_6 artifact.
// Batch 1 is the per-sample Process path (the old BENCH_5 rows); larger
// batches go through ProcessBatch and its GEMM kernels.
type precisionRow struct {
	Precision     string  `json:"precision"`
	Batch         int     `json:"batch"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	MemoryBytes   int     `json:"memory_bytes"`
}

// precisionSummary is the machine-readable form of the precision
// comparison, written by -json for CI artifact tracking.
type precisionSummary struct {
	Samples  int            `json:"samples"`
	Repeat   int            `json:"repeat"`
	F32SIMD  bool           `json:"f32_simd"`
	Backends []precisionRow `json:"backends"`
}
