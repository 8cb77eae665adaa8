package main

import (
	"flag"
	"fmt"
	"os"

	"edgedrift/internal/eval"
)

// runCoop is the `driftbench coop` subcommand: the ext-coop experiment
// as a tracked artifact. It runs the per-stream (cold) vs cooperative
// (warm) post-drift recovery comparison on the cooling-fan scenarios
// and, with -json, writes the comparison as the BENCH_8 artifact CI
// uploads. The human-readable table on stdout is the same one
// `driftbench -exp ext-coop` prints.
func runCoop(args []string) int {
	fs := flag.NewFlagSet("coop", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "random seed for data and models")
	jsonPath := fs.String("json", "", "also write the comparison as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cmp, err := eval.RunCoop(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coop:", err)
		return 1
	}
	out := eval.CoopOutcome(cmp)
	for _, t := range out.Tables {
		fmt.Println(t)
	}
	for _, s := range cmp.Scenarios {
		if err := coopGateErr(s.Scenario, s.WarmRecoverySamples, s.ColdRecoverySamples); err != nil {
			fmt.Fprintln(os.Stderr, "coop:", err)
			return 1
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, cmp); err != nil {
			fmt.Fprintln(os.Stderr, "coop:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return 0
}

// coopGateErr is the CI gate for one coop scenario. Warm must have
// converged, and must be no slower than cold; warm == cold == 0 passes,
// because on a stream where cold recovery is already instantaneous
// there is nothing left for warm seeding to beat — the old strict
// warm < cold gate failed that case spuriously. A cold that never
// converged (negative) passes any converged warm.
func coopGateErr(scenario string, warm, cold int) error {
	if warm < 0 {
		return fmt.Errorf("%s: warm recovery never converged", scenario)
	}
	if cold >= 0 && warm > cold {
		return fmt.Errorf("%s: warm recovery (%d) slower than cold (%d)", scenario, warm, cold)
	}
	return nil
}
