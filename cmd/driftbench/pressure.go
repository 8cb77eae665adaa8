package main

import (
	"errors"
	"fmt"

	"edgedrift/internal/eval"
)

// runPressure is the `driftbench pressure` subcommand: the forced-
// degradation matrix behind the adaptive capacity governor. Each Table
// 2/3 stream is replayed at every degradation level the governor can
// force (f64 baseline, demoted-f32, demoted-q16), reporting throughput
// and detection-quality deltas, gated on the demote→promote off-path
// being bit-exactly free. -json writes the BENCH_10 artifact tracked by
// CI; a failed golden gate is a non-zero exit even when the matrix
// itself completed.
func runPressure(args []string) int {
	return runGated("pressure", args, eval.RunPressure, printPressure, func(rep *eval.PressureReport) error {
		if !rep.GoldenGateOK {
			return errors.New("golden gate FAILED: a demote→promote excursion perturbed the full-precision path")
		}
		return nil
	})
}

// printPressure prints the forced-degradation matrix, one row per
// stream and level.
func printPressure(rep *eval.PressureReport) {
	fmt.Printf("pressure: forced-degradation matrix, seed %d\n", rep.Seed)
	fmt.Printf("%-12s %-5s %14s %12s %8s %8s %12s\n",
		"stream", "level", "samples/s", "accuracy", "Δacc", "delay", "retained kB")
	for _, p := range rep.Points {
		acc, dacc := "-", "-"
		if p.AccuracyPct >= 0 {
			acc = fmt.Sprintf("%.2f%%", p.AccuracyPct)
			dacc = fmt.Sprintf("%+.2f", p.AccuracyDeltaPct)
		}
		delay := "-"
		if p.Delay >= 0 {
			delay = fmt.Sprintf("%d", p.Delay)
		}
		fmt.Printf("%-12s %-5s %14.0f %12s %8s %8s %12.1f\n",
			p.Stream, p.Level, p.SamplesPerSec, acc, dacc, delay, float64(p.MemoryBytes)/1024)
	}
	fmt.Printf("golden gate (demote→promote off-path bit-exact): %v\n", rep.GoldenGateOK)
}
