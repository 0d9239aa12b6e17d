package experiments

import (
	"context"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/threshold"
)

// The ablation/baseline study quantifies two things the paper argues but
// does not tabulate:
//
//  1. every factor of the SMT-selection metric earns its place — the mix
//     deviation alone, the dispatch-held fraction alone, or the product
//     without the scalability term all classify worse than the full metric
//     (the paper's Section II rationale);
//  2. the alternatives the paper dismisses really are worse — the naive
//     single-number statistics of Fig. 2, and the "switch and watch IPC"
//     probe whose failure mode (spin-loop IPC inflation) the paper calls
//     out in its introduction.
//
// Each predictor is given its best possible threshold (and, for the naive
// statistics, its best orientation), so the comparison is as generous to
// the baselines as possible.

// PredictorResult reports one predictor's classification quality over a
// benchmark set.
type PredictorResult struct {
	// Name identifies the predictor.
	Name string
	// Kind groups predictors for reporting: "metric", "ablation",
	// "naive", "probe", "oracle".
	Kind string
	// Accuracy is the fraction of benchmarks whose SMT preference the
	// predictor classifies correctly, at its best threshold/orientation.
	Accuracy float64
	// Threshold is the value used (0 for threshold-free predictors).
	Threshold float64
	// Misclassified lists the benchmarks the predictor gets wrong.
	Misclassified []string
}

// bestSplitEitherWay finds the threshold and orientation that classify the
// points best, trying both "small value ⇒ prefers high SMT" (the metric's
// natural sense) and the reverse. It returns the best accuracy, the
// threshold, and the misclassified labels.
func bestSplitEitherWay(pts []threshold.Point) (float64, float64, []string) {
	flip := func(ps []threshold.Point) []threshold.Point {
		out := make([]threshold.Point, len(ps))
		for i, p := range ps {
			out[i] = p
			out[i].Metric = -p.Metric
		}
		return out
	}
	bestAcc, bestTh := -1.0, 0.0
	var bestMis []string
	for pass, set := range [][]threshold.Point{pts, flip(pts)} {
		vals := make([]float64, 0, len(set))
		for _, p := range set {
			vals = append(vals, p.Metric)
		}
		sort.Float64s(vals)
		cands := []float64{vals[0] - 1}
		for i := 1; i < len(vals); i++ {
			cands = append(cands, (vals[i-1]+vals[i])/2)
		}
		cands = append(cands, vals[len(vals)-1]+1)
		for _, th := range cands {
			if acc := threshold.Accuracy(set, th); acc > bestAcc {
				bestAcc = acc
				bestMis = threshold.Misclassified(set, th)
				if pass == 0 {
					bestTh = th
				} else {
					bestTh = -th
				}
			}
		}
	}
	return bestAcc, bestTh, bestMis
}

// AblationStudy compares the full SMT-selection metric against its ablated
// variants, the naive Fig. 2 statistics, an IPC-comparison probe, and the
// oracle, classifying "does the figure's high SMT level beat its low one"
// over the figure's benchmarks, with every statistic read at its metric
// level. The CLI, the benchmark and the golden test run Fig. 6's row.
func AblationStudy(ctx context.Context, m *Matrix, f Figure) []PredictorResult {
	var out []PredictorResult

	eval := func(name, kind string, value func(*Cell) float64) {
		pts := f.points(ctx, m, value)
		if len(pts) == 0 {
			return
		}
		acc, th, mis := bestSplitEitherWay(pts)
		out = append(out, PredictorResult{
			Name: name, Kind: kind, Accuracy: acc, Threshold: th, Misclassified: mis,
		})
	}

	// The full metric and its ablations (Fig. 6 measures at the high
	// level, as the paper prescribes).
	eval("SMTsm (full)", "metric", func(c *Cell) float64 { return c.Metric.Value })
	eval("mix-deviation only", "ablation", func(c *Cell) float64 { return c.Metric.MixDeviation })
	eval("dispatch-held only", "ablation", func(c *Cell) float64 { return c.Metric.DispHeld })
	eval("scalability only", "ablation", func(c *Cell) float64 { return c.Metric.Scalability })
	eval("mixDev × dispHeld (no scalability)", "ablation", func(c *Cell) float64 {
		return c.Metric.MixDeviation * c.Metric.DispHeld
	})
	eval("mixDev × scalability (no dispHeld)", "ablation", func(c *Cell) float64 {
		return c.Metric.MixDeviation * c.Metric.Scalability
	})

	// The naive single-number statistics of Fig. 2.
	eval("L1 MPKI", "naive", func(c *Cell) float64 { return c.Snap.MissesPerKilo(mem.LevelL1) })
	eval("CPI", "naive", func(c *Cell) float64 { return c.Snap.CPI() })
	eval("branch MPKI", "naive", func(c *Cell) float64 { return c.Snap.BranchMPKI() })
	eval("%FP/vector", "naive", func(c *Cell) float64 {
		return c.Snap.ClassFraction(isa.FPVec, isa.FPDiv)
	})

	// The "switch the level and watch IPC" probe from the paper's
	// introduction: it predicts the high level wins whenever raw IPC is
	// higher there. Spin loops retire instructions too, so contended
	// workloads inflate their high-SMT IPC and fool the probe.
	{
		var mis []string
		n, ok := 0, 0
		for _, b := range f.Benches {
			chi, clo := m.Cell(ctx, b, f.Hi), m.Cell(ctx, b, f.Lo)
			if chi.Err != nil || clo.Err != nil {
				continue
			}
			sp := m.Speedup(ctx, b, f.Hi, f.Lo)
			if sp <= 0 {
				continue
			}
			n++
			predHiWins := chi.Snap.IPC() > clo.Snap.IPC()
			if predHiWins == (sp >= 1) {
				ok++
			} else {
				mis = append(mis, b)
			}
		}
		if n > 0 {
			out = append(out, PredictorResult{
				Name: "IPC probe (switch and observe)", Kind: "probe",
				Accuracy: float64(ok) / float64(n), Misclassified: mis,
			})
		}
	}

	// The oracle: measure both levels and pick the faster (always right,
	// by definition — it is the upper bound the metric approximates
	// without running the workload twice).
	out = append(out, PredictorResult{Name: "oracle (run both levels)", Kind: "oracle", Accuracy: 1})

	return out
}
