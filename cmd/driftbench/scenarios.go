package main

import (
	"fmt"

	"edgedrift/internal/eval"
)

// runScenarios is the `driftbench scenarios` subcommand: the
// ext-scenarios label-delay matrix as a tracked artifact. It sweeps
// {label delay × label budget × drift type × detector mode} on the
// cooling-fan streams and, with -json, writes the matrix as the BENCH_9
// artifact CI uploads. The human-readable table on stdout is the same
// one `driftbench -exp ext-scenarios` prints.
func runScenarios(args []string) int {
	return runGated("scenarios", args, eval.RunScenarios,
		func(m *eval.ScenarioMatrix) { printTables(eval.ScenariosOutcome(m)) },
		scenariosGateErr)
}

// scenariosGateErr is the CI gate over the matrix: on the reoccurring
// stream the pooled arm must actually restore a checkpoint and recover
// no slower than the cold (unsupervised) rebuild — strictly faster when
// the cold rebuild takes any time at all. On the sudden stream the pool
// must stay a bystander: no restores, identical detection.
func scenariosGateErr(m *eval.ScenarioMatrix) error {
	find := func(scenario, mode string) *eval.ScenarioCell {
		for i := range m.Cells {
			c := &m.Cells[i]
			if c.Scenario == scenario && c.Mode == mode {
				return c
			}
		}
		return nil
	}
	cold := find("reoccurring", "unsupervised")
	pooled := find("reoccurring", "pooled")
	if cold == nil || pooled == nil {
		return fmt.Errorf("matrix is missing the reoccurring baseline cells")
	}
	if pooled.PoolRestores < 1 {
		return fmt.Errorf("reoccurring: pool never restored (hits=%d)", pooled.PoolHits)
	}
	if pooled.RecoverySamples < 0 {
		return fmt.Errorf("reoccurring: pooled arm never recovered")
	}
	if cold.RecoverySamples > 0 && pooled.RecoverySamples >= cold.RecoverySamples {
		return fmt.Errorf("reoccurring: pooled recovery (%d) not faster than cold (%d)",
			pooled.RecoverySamples, cold.RecoverySamples)
	}
	suddenCold := find("sudden", "unsupervised")
	suddenPooled := find("sudden", "pooled")
	if suddenCold == nil || suddenPooled == nil {
		return fmt.Errorf("matrix is missing the sudden baseline cells")
	}
	if suddenPooled.PoolRestores != 0 {
		return fmt.Errorf("sudden: pool restored %d times on a drift that never reoccurs", suddenPooled.PoolRestores)
	}
	if suddenPooled.DetectAt != suddenCold.DetectAt {
		return fmt.Errorf("sudden: pooled bystander diverged (detect %d vs %d)",
			suddenPooled.DetectAt, suddenCold.DetectAt)
	}
	return nil
}
