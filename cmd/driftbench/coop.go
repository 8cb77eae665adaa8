package main

import (
	"fmt"

	"edgedrift/internal/eval"
)

// runCoop is the `driftbench coop` subcommand: the ext-coop experiment
// as a tracked artifact. It runs the per-stream (cold) vs cooperative
// (warm) post-drift recovery comparison on the cooling-fan scenarios
// and, with -json, writes the comparison as the BENCH_8 artifact CI
// uploads. The human-readable table on stdout is the same one
// `driftbench -exp ext-coop` prints.
func runCoop(args []string) int {
	return runGated("coop", args, eval.RunCoop,
		func(cmp *eval.CoopComparison) { printTables(eval.CoopOutcome(cmp)) },
		func(cmp *eval.CoopComparison) error {
			for _, s := range cmp.Scenarios {
				if err := coopGateErr(s.Scenario, s.WarmRecoverySamples, s.ColdRecoverySamples); err != nil {
					return err
				}
			}
			return nil
		})
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
