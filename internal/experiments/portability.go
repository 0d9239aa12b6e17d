package experiments

import (
	"context"

	"repro/internal/arch"
)

// SMT8OneChip is the forward-looking 8-way-SMT system (the paper's
// future-work direction: "test the metric on other architectures").
var SMT8OneChip = System{Name: "GenericSMT8-8core", Arch: arch.GenericSMT8, Chips: 1}

// PortabilityBenchmarks is the workload set used for the SMT8 portability
// study: a diverse slice of the suite that runs quickly even with 64
// hardware threads.
var PortabilityBenchmarks = []string{
	"EP", "Blackscholes", "Swaptions", "BT", "Fluidanimate",
	"MG", "Swim", "Stream", "IS", "CG_MPI",
	"SSCA2", "SPECjbb", "SPECjbb_contention", "Dedup", "Daytrader",
}

// PortabilityResult carries the SMT8 validation: the metric measured at
// SMT8 against the SMT8/SMT1 speedup, with the automatically selected
// threshold, plus the same for the intermediate SMT8/SMT4 decision.
type PortabilityResult struct {
	// Smt8VsSmt1 is the headline scatter on the new architecture.
	Smt8VsSmt1 FigResult
	// Smt8VsSmt4 is the intermediate-level decision.
	Smt8VsSmt4 FigResult
}

// Portability reproduces the Fig. 6 methodology on the GenericSMT8 model:
// if the metric is genuinely architecture-portable, the same pipeline —
// measure at the deepest level, Gini-select a threshold — should separate
// SMT8-preferring from SMT1-preferring workloads without any
// architecture-specific tuning beyond the ideal-mix description.
func Portability(ctx context.Context, m *Matrix) PortabilityResult {
	return PortabilityResult{Smt8VsSmt1: smt8v1.Run(ctx, m), Smt8VsSmt4: smt8v4.Run(ctx, m)}
}
