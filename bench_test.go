// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its table/figure from a shared,
// lazily-built measurement campaign (exactly as the paper's figures are all
// cut from one set of runs): the first iteration pays for the simulations,
// later iterations measure figure assembly from the cached cells.
//
// Run a single figure with, e.g.:
//
//	go test -bench 'BenchmarkFig6$' -benchtime 1x
//
// The printed reproduction summaries land in the benchmark log (-v).
package smtselect_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	smtselect "repro"
	"repro/internal/controller"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/workload"
)

var (
	campaignMu sync.Mutex
	campaigns  = map[string]*experiments.Matrix{}
)

// campaign returns the shared run matrix for a system. The first request
// for a system fills its standard figure cells through the worker pool, so
// the whole suite simulates concurrently instead of cell-by-cell inside
// whichever figure benchmark happens to run first.
func campaign(sys experiments.System) *experiments.Matrix {
	campaignMu.Lock()
	defer campaignMu.Unlock()
	if m, ok := campaigns[sys.Name]; ok {
		return m
	}
	m := experiments.NewMatrix(sys, experiments.DefaultSeed)
	for _, fc := range experiments.AllFigureCells() {
		if fc.Sys.Name == sys.Name {
			pool := &experiments.Runner{}
			pool.Sweep(context.Background(), m, fc.Benches, fc.SMTs)
		}
	}
	campaigns[sys.Name] = m
	return m
}

// BenchmarkTable1Inventory regenerates Table I (the benchmark inventory).
func BenchmarkTable1Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		specs := workload.All()
		if len(specs) < 34 {
			b.Fatalf("only %d benchmarks in the inventory", len(specs))
		}
	}
	b.ReportMetric(float64(len(workload.All())), "benchmarks")
}

// BenchmarkFig1 regenerates Fig. 1: SMT1-vs-SMT4 performance for Equake,
// MG and EP on the 8-core POWER7.
func BenchmarkFig1(b *testing.B) {
	m := campaign(experiments.P7OneChip)
	var res experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig1(context.Background(), m)
	}
	for i, bench := range res.Benches {
		b.Logf("%s: SMT4 performance %.2fx of SMT1", bench, res.Normalized[i])
		b.ReportMetric(res.Normalized[i], fmt.Sprintf("x_smt4/smt1_%s", bench))
	}
}

// BenchmarkFig2 regenerates Fig. 2: speedup vs naive statistics, and
// reports the (absence of) correlation.
func BenchmarkFig2(b *testing.B) {
	m := campaign(experiments.P7OneChip)
	var res experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig2(context.Background(), m)
	}
	names := []string{"L1MPKI", "CPI", "BrMPKI", "VSU"}
	for i, r := range res.Correlations {
		b.Logf("pearson(speedup, %s) = %.3f", names[i], r)
		b.ReportMetric(r, "r_"+names[i])
	}
}

// scatterBench regenerates one of the paper's metric-vs-speedup figures
// from its system's campaign and reports its threshold and success rate.
func scatterBench(b *testing.B, fig string) {
	b.Helper()
	f, err := experiments.ScatterFigure(fig)
	if err != nil {
		b.Fatal(err)
	}
	m := campaign(f.Sys)
	var res experiments.FigResult
	for i := 0; i < b.N; i++ {
		res = f.Run(context.Background(), m)
	}
	b.Logf("%s: threshold %.4f, success %.0f%%, %d points, mispredicted %v",
		res.ID, res.Threshold, 100*res.Accuracy, len(res.Points), res.Misclassified)
	b.ReportMetric(100*res.Accuracy, "%success")
	b.ReportMetric(res.Threshold, "threshold")
}

// BenchmarkFig6 regenerates the headline result: SMT4/SMT1 speedup vs
// metric@SMT4 on one POWER7 chip (paper: ~93% success).
func BenchmarkFig6(b *testing.B) { scatterBench(b, "6") }

// BenchmarkFig7 regenerates the instruction-mix comparison of Fig. 7.
func BenchmarkFig7(b *testing.B) {
	m := campaign(experiments.P7OneChip)
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig7(context.Background(), m)
	}
	for _, r := range rows {
		b.Logf("%-20s L%.1f S%.1f B%.1f FX%.1f VS%.1f (speedup %.2f)",
			r.Bench, r.Loads, r.Stores, r.Branches, r.FXU, r.VSU, r.Speedup)
	}
}

// BenchmarkFig8 regenerates Fig. 8 (SMT4/SMT2 vs metric@SMT4).
func BenchmarkFig8(b *testing.B) { scatterBench(b, "8") }

// BenchmarkFig9 regenerates Fig. 9 (SMT2/SMT1 vs metric@SMT2, POWER7).
func BenchmarkFig9(b *testing.B) { scatterBench(b, "9") }

// BenchmarkFig10 regenerates Fig. 10 (Nehalem; paper: ~86% success with the
// Streamcluster outlier).
func BenchmarkFig10(b *testing.B) { scatterBench(b, "10") }

// BenchmarkFig11 regenerates Fig. 11 (metric measured at SMT1 breaks down,
// POWER7): expect a LOW success rate.
func BenchmarkFig11(b *testing.B) { scatterBench(b, "11") }

// BenchmarkFig12 regenerates Fig. 12 (metric at SMT1 on Nehalem).
func BenchmarkFig12(b *testing.B) { scatterBench(b, "12") }

// BenchmarkFig13 regenerates Fig. 13 (two POWER7 chips, SMT4/SMT1).
func BenchmarkFig13(b *testing.B) { scatterBench(b, "13") }

// BenchmarkFig14 regenerates Fig. 14 (two chips, SMT4/SMT2).
func BenchmarkFig14(b *testing.B) { scatterBench(b, "14") }

// BenchmarkFig15 regenerates Fig. 15 (two chips, SMT2/SMT1).
func BenchmarkFig15(b *testing.B) { scatterBench(b, "15") }

// BenchmarkFig16 regenerates Fig. 16: the Gini-impurity curve.
func BenchmarkFig16(b *testing.B) {
	m := campaign(experiments.P7OneChip)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(context.Background(), m)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("optimal separator range [%.4f, %.4f], impurity %.3f",
				res.Lo, res.Hi, res.MinImpurity)
			b.ReportMetric(res.MinImpurity, "impurity")
		}
	}
}

// BenchmarkFig17 regenerates Fig. 17: the average-PPI curve.
func BenchmarkFig17(b *testing.B) {
	m := campaign(experiments.P7OneChip)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig17(context.Background(), m)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("best threshold %.4f, expected improvement %.1f%%", res.Best, res.BestPPI)
			b.ReportMetric(res.BestPPI, "%PPI")
		}
	}
}

// BenchmarkController exercises the Section V use-case: the online
// controller steering a contended workload down from SMT4.
func BenchmarkController(b *testing.B) {
	spec, err := workload.Get("SPECjbb_contention")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m, err := smtselect.NewPOWER7Machine(1)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := smtselect.NewController(m.Arch(), smtselect.ControllerConfig{
			Threshold: 0.21, Hysteresis: 0.1, ProbeEvery: 0,
		})
		if err != nil {
			b.Fatal(err)
		}
		src := &benchChunks{spec: spec, chunks: 4}
		if _, _, err := controller.RunAdaptiveContext(context.Background(), m, ctrl, src, 0); err != nil {
			b.Fatal(err)
		}
		if ctrl.Level() >= 4 {
			b.Fatal("controller failed to step down for a contended workload")
		}
	}
}

// benchChunks is a minimal WorkSource for BenchmarkController.
type benchChunks struct {
	spec   *workload.Spec
	chunks int
	seed   uint64
}

func (c *benchChunks) NextChunk(threads int) ([]isa.Source, bool) {
	if c.chunks == 0 {
		return nil, false
	}
	c.chunks--
	c.seed++
	spec := *c.spec
	spec.TotalWork = 300_000
	inst, err := workload.Instantiate(&spec, threads, c.seed)
	if err != nil {
		return nil, false
	}
	return inst.Sources(), true
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per second for a full-machine POWER7 run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := workload.Get("EP")
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m, err := smtselect.NewPOWER7Machine(1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := smtselect.RunWorkload(context.Background(), m, spec, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Counters.Retired
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkAblation runs the metric-ablation and baseline-predictor study
// on the single-chip POWER7 set: the full SMTsm against its ablated
// variants, the Fig. 2 naive statistics, and the IPC probe.
func BenchmarkAblation(b *testing.B) {
	m := campaign(experiments.P7OneChip)
	var res []experiments.PredictorResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationStudy(context.Background(), m, experiments.P7Benchmarks, 4, 1)
	}
	for _, p := range res {
		b.Logf("%-36s %-9s accuracy %.0f%%  wrong=%v", p.Name, p.Kind, 100*p.Accuracy, p.Misclassified)
	}
}

// BenchmarkPortability validates the metric on the GenericSMT8 model — the
// paper's future-work direction of porting the metric to new architectures.
func BenchmarkPortability(b *testing.B) {
	m := campaign(experiments.SMT8OneChip)
	var res experiments.PortabilityResult
	for i := 0; i < b.N; i++ {
		res = experiments.Portability(context.Background(), m)
	}
	b.Logf("SMT8/SMT1: threshold %.4f success %.0f%% wrong=%v",
		res.Smt8VsSmt1.Threshold, 100*res.Smt8VsSmt1.Accuracy, res.Smt8VsSmt1.Misclassified)
	b.Logf("SMT8/SMT4: threshold %.4f success %.0f%% wrong=%v",
		res.Smt8VsSmt4.Threshold, 100*res.Smt8VsSmt4.Accuracy, res.Smt8VsSmt4.Misclassified)
	b.ReportMetric(100*res.Smt8VsSmt1.Accuracy, "%success_8v1")
}

// BenchmarkSensitivity re-runs the Fig. 6 methodology under a few machine-
// parameter variants (a subset of the full -sensitivity study, to bound the
// harness runtime) and reports whether the metric's separation survives.
func BenchmarkSensitivity(b *testing.B) {
	variants := experiments.SensitivityVariants[:3]
	var rows []experiments.SensitivityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Sensitivity(context.Background(), experiments.DefaultSeed, variants...)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%-18s threshold %.4f accuracy %.0f%% spearman %.2f separable=%v",
			r.Variant, r.Threshold, 100*r.Accuracy, r.Spearman, r.Separable)
	}
}
