// Command driftbench regenerates the paper's tables and figures.
//
// Usage:
//
//	driftbench -exp table2            # one experiment
//	driftbench -exp all               # everything, paper order
//	driftbench -exp all -parallel 4   # fan experiments out over 4 workers
//	driftbench -exp fig4 -csv out/    # also dump CSV series/tables
//	driftbench -exp all -cpuprofile cpu.pprof -memprofile mem.pprof
//	driftbench -exp table2 -precision f32   # same experiment on the float32 backend
//	driftbench -list                  # show the experiment registry
//	driftbench fleet -streams 64      # multi-stream fleet throughput
//	driftbench fleet -precision q16   # fleet of Q16.16 fixed-point members
//	driftbench serve -addr :9100      # replay streams, serve /metrics + /health
//	driftbench precision -json BENCH_6.json  # f64/f32/q16 scoring throughput
//	driftbench shard -addr :7600      # one shard of the distributed serve tier
//	driftbench route -shards host1:7600,host2:7600  # consistent-hash router
//	driftbench shard -cpuprofile shard.pprof  # profile a serving process until SIGINT
//	driftbench coop -json BENCH_8.json  # cooperative vs per-stream drift recovery
//	driftbench scenarios -json BENCH_9.json  # label-delay matrix: hybrid detection + model pool
//	driftbench pressure -json BENCH_10.json  # forced-degradation matrix + golden gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"edgedrift"
	"edgedrift/internal/eval"
	"edgedrift/internal/workpool"
)

// main delegates to run so that deferred cleanup — stopping the CPU
// profiler and closing profile files — executes on every exit path.
// Calling os.Exit directly from the work path would skip the defers and
// silently truncate the profiles exactly when an experiment fails, the
// case most worth profiling.
func main() {
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			os.Exit(sub(os.Args[2:]))
		}
	}
	os.Exit(run())
}

// subcommands maps each `driftbench NAME ...` to its entry point; with
// no subcommand, driftbench regenerates the paper tables.
var subcommands = map[string]func(args []string) int{
	"fleet":     runFleet,
	"serve":     runServe,
	"precision": runPrecision,
	"shard":     runShard,
	"route":     runRoute,
	"coop":      runCoop,
	"scenarios": runScenarios,
	"pressure":  runPressure,
}

// usage prints the table flags and names the subcommands, which are
// recognised only as the first argument.
func usage() {
	names := make([]string, 0, len(subcommands))
	for name := range subcommands {
		names = append(names, name)
	}
	sort.Strings(names)
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: driftbench [flags]\n       driftbench SUBCOMMAND [flags]\n\nsubcommands: %s\n\nflags:\n", strings.Join(names, ", "))
	flag.PrintDefaults()
}

func run() int {
	exp := flag.String("exp", "all", "experiment id (fig1, fig4, table2..table6, ablation-*, ext-*), 'all', 'ablations', or 'extensions'")
	precision := flag.String("precision", "f64", "numeric backend the experiment models compute at (f64 or f32; q16 is inference-only)")
	seed := flag.Uint64("seed", 1, "random seed for the whole experiment")
	csvDir := flag.String("csv", "", "directory to write CSV tables/series into")
	list := flag.Bool("list", false, "list available experiments and exit")
	parallel := flag.Int("parallel", 1, "experiments evaluated concurrently (1 keeps host wall-clock columns contention-free; 0 means GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "driftbench: unexpected argument %q; a subcommand must come first\n", flag.Arg(0))
		usage()
		return 2
	}

	if *list {
		for _, e := range eval.Registry() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		for _, e := range eval.RegistryAblations() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		for _, e := range eval.RegistryExtensions() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return 0
	}

	prec, err := edgedrift.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown precision %q; use f64, f32 or q16\n", *precision)
		return 2
	}
	if err := eval.SetPrecision(prec); err != nil {
		// q16 lands here: the experiments train models, and the Q16.16
		// backend is inference-only (quantised from a fitted monitor).
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}

	var todo []eval.Experiment
	switch *exp {
	case "all":
		todo = eval.Registry()
	case "ablations":
		todo = eval.RegistryAblations()
	case "extensions":
		todo = eval.RegistryExtensions()
	default:
		e, ok := eval.LookupAny(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			return 2
		}
		todo = []eval.Experiment{e}
	}

	stopProfile, err := startCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		return 1
	}
	defer stopProfile()

	if err := runAll(todo, *seed, *parallel, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}

	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

// startCPUProfile starts a CPU profile into path and returns the
// function that stops it and closes the file; an empty path profiles
// nothing. Callers defer the stop, so the profile is flushed on every
// return path — the serving subcommands return after a SIGINT shutdown.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		}
	}, nil
}

// writeMemProfile snapshots the heap to path, reporting close errors so
// a full disk does not pass silently.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows retained state
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll evaluates the experiments — concurrently when parallel != 1 —
// and prints their tables in registry order regardless of completion
// order. Each experiment's outcome lands in its pre-assigned slot; only
// printing and CSV writing happen after the pool drains.
func runAll(todo []eval.Experiment, seed uint64, parallel int, csvDir string) error {
	type timed struct {
		out     *eval.Outcome
		elapsed time.Duration
	}
	results := make([]timed, len(todo))
	pool := workpool.New(parallel)
	for i, e := range todo {
		i, e := i, e
		pool.Go(func() error {
			start := time.Now()
			out := e.Run(seed)
			results[i] = timed{out: out, elapsed: time.Since(start)}
			return nil
		})
	}
	if err := pool.Wait(); err != nil {
		return err
	}
	for i, e := range todo {
		fmt.Printf("== %s (%s, %.1fs)\n\n", e.ID, e.Title, results[i].elapsed.Seconds())
		for _, t := range results[i].out.Tables {
			fmt.Println(t.String())
		}
		if csvDir != "" {
			if err := writeCSV(csvDir, e.ID, results[i].out); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
	}
	return nil
}

func writeCSV(dir, id string, out *eval.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range out.Tables {
		name := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", id, i))
		if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	for _, f := range out.Figures {
		name := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", id, f.Name))
		if err := os.WriteFile(name, []byte(eval.SeriesCSV(f.XLabel, f.Series)), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeJSON writes v to path as two-space-indented JSON ending in a
// newline: the layout of every subcommand's -json artifact.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTables prints an outcome's tables as the -exp runs do.
func printTables(out *eval.Outcome) {
	for _, t := range out.Tables {
		fmt.Println(t)
	}
}

// runGated is the body every gated-artifact subcommand (coop, scenarios,
// pressure) shares: parse -seed and -json, run, print, write the JSON
// artifact when -json is set, then exit 1 if the gate fails. The
// artifact is written before the gate so a failing run keeps its
// evidence.
func runGated[T any](name string, args []string, run func(seed uint64) (T, error), show func(T), gate func(T) error) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "random seed for data and models")
	jsonPath := fs.String("json", "", "also write the result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := run(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	show(res)
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if err := gate(res); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	return 0
}
