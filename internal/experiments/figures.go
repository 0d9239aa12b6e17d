package experiments

import (
	"context"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/threshold"
)

// FigPoint is one benchmark's position in a metric-vs-speedup figure.
type FigPoint struct {
	Bench   string
	Metric  float64
	Speedup float64
}

// FigResult is the reproduced data behind one of the paper's
// metric-vs-speedup scatter figures (Figs. 6, 8-15).
type FigResult struct {
	// ID and Title identify the figure ("fig6", ...).
	ID, Title string
	// MetricAt and SpeedupOf describe the axes: the SMT level the metric
	// was measured at and the speedup pair (high over low).
	MetricAt             int
	SpeedupHi, SpeedupLo int
	Points               []FigPoint

	// Threshold is the orientation-aware accuracy-optimal threshold (small
	// metric ⇒ prefer the higher SMT level); Accuracy is the success rate
	// at it and Misclassified the benchmarks it gets wrong.
	Threshold     float64
	Accuracy      float64
	Misclassified []string

	// GiniLo..GiniHi bound the separator range minimising raw Gini
	// impurity (the paper's Sec. V-A procedure, plotted in Fig. 16), with
	// MinImpurity its value.
	GiniLo, GiniHi float64
	MinImpurity    float64

	// Spearman is the rank correlation between metric and speedup: a
	// working metric is strongly negative (high metric ⇒ low speedup); at
	// the wrong measurement level it collapses toward zero (Figs. 11-12).
	Spearman float64

	// AmbiguousLo and AmbiguousHi bound the metric band inside which both
	// preferences occur — the paper's Fig. 9 observation that between two
	// metric values "it is not possible to predict the application's SMT
	// preference". The band is empty (Lo > Hi) when the classes separate
	// perfectly.
	AmbiguousLo, AmbiguousHi float64
}

// scatter builds a metric-vs-speedup figure from a matrix.
func scatter(ctx context.Context, m *Matrix, id, title string, benches []string, metricAt, hi, lo int) FigResult {
	r := FigResult{ID: id, Title: title, MetricAt: metricAt, SpeedupHi: hi, SpeedupLo: lo}
	var pts []threshold.Point
	for _, b := range benches {
		cell := m.Cell(ctx, b, metricAt)
		if cell.Err != nil {
			continue
		}
		sp := m.Speedup(ctx, b, hi, lo)
		if sp <= 0 {
			continue
		}
		p := FigPoint{Bench: b, Metric: cell.Metric.Value, Speedup: sp}
		r.Points = append(r.Points, p)
		pts = append(pts, threshold.Point{Metric: p.Metric, Speedup: p.Speedup, Label: b})
	}
	if th, acc, mis, err := threshold.BestAccuracySplit(pts); err == nil {
		r.Threshold = th
		r.Accuracy = acc
		r.Misclassified = mis
	}
	if g, err := threshold.GiniSearch(pts); err == nil {
		r.GiniLo, r.GiniHi = g.Lo, g.Hi
		r.MinImpurity = g.MinImpurity
	}
	var ms, sps []float64
	for _, p := range r.Points {
		ms = append(ms, p.Metric)
		sps = append(sps, p.Speedup)
	}
	if rho, err := stats.Spearman(ms, sps); err == nil {
		r.Spearman = rho
	}
	// The ambiguous band: metrics between the smallest loser and the
	// largest winner cannot be classified by any single threshold.
	minBad, maxGood := 0.0, 0.0
	haveBad, haveGood := false, false
	for _, p := range r.Points {
		if p.Speedup >= 1 {
			if !haveGood || p.Metric > maxGood {
				maxGood = p.Metric
			}
			haveGood = true
		} else {
			if !haveBad || p.Metric < minBad {
				minBad = p.Metric
			}
			haveBad = true
		}
	}
	if haveBad && haveGood && minBad < maxGood {
		r.AmbiguousLo, r.AmbiguousHi = minBad, maxGood
	} else {
		r.AmbiguousLo, r.AmbiguousHi = 1, 0 // empty band
	}
	return r
}

// Fig6 reproduces Fig. 6: SMT4/SMT1 speedup vs SMTsm@SMT4 on one POWER7
// chip — the paper's headline result (93% prediction success).
func Fig6(ctx context.Context, m *Matrix) FigResult {
	return scatter(ctx, m, "fig6", "SMT4/SMT1 speedup vs metric @SMT4 (POWER7, 1 chip)",
		P7Benchmarks, 4, 4, 1)
}

// Fig8 reproduces Fig. 8: SMT4/SMT2 speedup vs SMTsm@SMT4.
func Fig8(ctx context.Context, m *Matrix) FigResult {
	return scatter(ctx, m, "fig8", "SMT4/SMT2 speedup vs metric @SMT4 (POWER7, 1 chip)",
		P7Benchmarks, 4, 4, 2)
}

// Fig9 reproduces Fig. 9: SMT2/SMT1 speedup vs SMTsm@SMT2, where the paper
// finds a band of metric values in which no prediction is possible.
func Fig9(ctx context.Context, m *Matrix) FigResult {
	return scatter(ctx, m, "fig9", "SMT2/SMT1 speedup vs metric @SMT2 (POWER7, 1 chip)",
		P7Benchmarks, 2, 2, 1)
}

// Fig10 reproduces Fig. 10: SMT2/SMT1 speedup vs SMTsm@SMT2 on the Nehalem
// system (86% success; Streamcluster is the expected outlier).
func Fig10(ctx context.Context, m *Matrix) FigResult {
	return scatter(ctx, m, "fig10", "SMT2/SMT1 speedup vs metric @SMT2 (Core i7)",
		I7Benchmarks, 2, 2, 1)
}

// Fig11 reproduces Fig. 11: the metric measured at SMT1 fails to predict the
// SMT4/SMT1 speedup (POWER7).
func Fig11(ctx context.Context, m *Matrix) FigResult {
	return scatter(ctx, m, "fig11", "SMT4/SMT1 speedup vs metric @SMT1 (POWER7, 1 chip)",
		Fig11Benchmarks, 1, 4, 1)
}

// Fig12 reproduces Fig. 12: the metric measured at SMT1 fails on Nehalem
// too.
func Fig12(ctx context.Context, m *Matrix) FigResult {
	return scatter(ctx, m, "fig12", "SMT2/SMT1 speedup vs metric @SMT1 (Core i7)",
		Fig12Benchmarks, 1, 2, 1)
}

// Fig13 reproduces Fig. 13: SMT4/SMT1 vs SMTsm@SMT4 on two chips (16 cores):
// more mispredictions and more SMT1-preferring applications than Fig. 6.
func Fig13(ctx context.Context, m *Matrix) FigResult {
	return scatter(ctx, m, "fig13", "SMT4/SMT1 speedup vs metric @SMT4 (POWER7, 2 chips)",
		Fig13Benchmarks, 4, 4, 1)
}

// Fig14 reproduces Fig. 14: SMT4/SMT2 vs SMTsm@SMT4 on two chips.
func Fig14(ctx context.Context, m *Matrix) FigResult {
	return scatter(ctx, m, "fig14", "SMT4/SMT2 speedup vs metric @SMT4 (POWER7, 2 chips)",
		Fig14Benchmarks, 4, 4, 2)
}

// Fig15 reproduces Fig. 15: SMT2/SMT1 vs SMTsm@SMT2 on two chips
// (prediction ineffective, as in the single-chip case).
func Fig15(ctx context.Context, m *Matrix) FigResult {
	return scatter(ctx, m, "fig15", "SMT2/SMT1 speedup vs metric @SMT2 (POWER7, 2 chips)",
		Fig15Benchmarks, 2, 2, 1)
}

// Fig1Result is the data behind Fig. 1: per-benchmark performance at the
// architecture's deepest SMT level normalised to SMT1.
type Fig1Result struct {
	Benches    []string
	Normalized []float64 // wall(SMT1)/wall(SMT4)
}

// Fig1 reproduces Fig. 1: Equake degrades, MG is indifferent, EP gains.
func Fig1(ctx context.Context, m *Matrix) Fig1Result {
	return Fig1Of(ctx, m, Fig1Benchmarks)
}

// Fig1Of computes the Fig. 1 normalisation over an explicit benchmark set
// (golden tests pin reduced sets to keep regression runs fast).
func Fig1Of(ctx context.Context, m *Matrix, benches []string) Fig1Result {
	r := Fig1Result{}
	for _, b := range benches {
		r.Benches = append(r.Benches, b)
		r.Normalized = append(r.Normalized, m.Speedup(ctx, b, 4, 1))
	}
	return r
}

// Fig2Row is one benchmark's naïve single-number statistics measured at
// SMT1, against its SMT4/SMT1 speedup.
type Fig2Row struct {
	Bench    string
	L1MPKI   float64
	CPI      float64
	BrMPKI   float64
	VSUShare float64 // % of instructions on the FP/vector pipes
	Speedup  float64
}

// Fig2Result carries the four panels of Fig. 2 plus the correlation
// coefficients demonstrating the paper's point: none of the naïve metrics
// correlates with SMT speedup.
type Fig2Result struct {
	Rows []Fig2Row
	// Correlations are Pearson r of speedup against each statistic, in
	// the order L1MPKI, CPI, BrMPKI, VSUShare.
	Correlations [4]float64
}

// Fig2 reproduces Fig. 2's scatter panels.
func Fig2(ctx context.Context, m *Matrix) Fig2Result {
	return fig2Subset(ctx, m, P7Benchmarks)
}

// fig2Subset computes the Fig. 2 statistics over a benchmark subset.
func fig2Subset(ctx context.Context, m *Matrix, benches []string) Fig2Result {
	var r Fig2Result
	var sp, l1, cpi, br, vsu []float64
	for _, b := range benches {
		c := m.Cell(ctx, b, 1)
		if c.Err != nil {
			continue
		}
		row := Fig2Row{
			Bench:    b,
			L1MPKI:   c.Snap.MissesPerKilo(mem.LevelL1),
			CPI:      c.Snap.CPI(),
			BrMPKI:   c.Snap.BranchMPKI(),
			VSUShare: 100 * c.Snap.ClassFraction(isa.FPVec, isa.FPDiv),
			Speedup:  m.Speedup(ctx, b, 4, 1),
		}
		r.Rows = append(r.Rows, row)
		sp = append(sp, row.Speedup)
		l1 = append(l1, row.L1MPKI)
		cpi = append(cpi, row.CPI)
		br = append(br, row.BrMPKI)
		vsu = append(vsu, row.VSUShare)
	}
	for i, xs := range [][]float64{l1, cpi, br, vsu} {
		if rho, err := stats.Pearson(xs, sp); err == nil {
			r.Correlations[i] = rho
		}
	}
	return r
}

// Fig7Row is one benchmark's observed instruction mix at SMT4.
type Fig7Row struct {
	Bench                             string
	Loads, Stores, Branches, FXU, VSU float64 // percent
	Speedup                           float64 // SMT4/SMT1
}

// Fig7 reproduces Fig. 7: the instruction mixes of five representative
// benchmarks, ordered by decreasing SMT4/SMT1 speedup, against the ideal
// POWER7 SMT mix.
func Fig7(ctx context.Context, m *Matrix) []Fig7Row {
	return Fig7Of(ctx, m, Fig7Benchmarks)
}

// Fig7Of computes the Fig. 7 instruction-mix rows over an explicit
// benchmark set, appending the ideal-mix reference bar.
func Fig7Of(ctx context.Context, m *Matrix, benches []string) []Fig7Row {
	var rows []Fig7Row
	for _, b := range benches {
		c := m.Cell(ctx, b, 4)
		if c.Err != nil {
			continue
		}
		rows = append(rows, Fig7Row{
			Bench:    b,
			Loads:    100 * c.Snap.ClassFraction(isa.Load),
			Stores:   100 * c.Snap.ClassFraction(isa.Store),
			Branches: 100 * c.Snap.ClassFraction(isa.Branch),
			FXU:      100 * c.Snap.ClassFraction(isa.Int, isa.IntMul),
			VSU:      100 * c.Snap.ClassFraction(isa.FPVec, isa.FPDiv),
			Speedup:  m.Speedup(ctx, b, 4, 1),
		})
	}
	// The ideal POWER7 SMT mix, as the paper's right-most bar.
	rows = append(rows, Fig7Row{
		Bench: "idealP7SMTmix",
		Loads: 100.0 / 7, Stores: 100.0 / 7, Branches: 100.0 / 7,
		FXU: 200.0 / 7, VSU: 200.0 / 7,
	})
	return rows
}

// Fig16 reproduces Fig. 16: the Gini-impurity curve over candidate
// separators for the Fig. 6 data.
func Fig16(ctx context.Context, m *Matrix) (threshold.GiniResult, error) {
	return threshold.GiniSearch(figPoints(Fig6(ctx, m)))
}

// Fig17 reproduces Fig. 17: the average-PPI curve over candidate thresholds
// for the Fig. 6 data.
func Fig17(ctx context.Context, m *Matrix) (threshold.PPIResult, error) {
	return threshold.PPISearch(figPoints(Fig6(ctx, m)))
}

// figPoints converts figure points to threshold observations.
func figPoints(r FigResult) []threshold.Point {
	pts := make([]threshold.Point, 0, len(r.Points))
	for _, p := range r.Points {
		pts = append(pts, threshold.Point{Metric: p.Metric, Speedup: p.Speedup, Label: p.Bench})
	}
	return pts
}

// CellsFor returns exactly the (bench, level) cells a figure needs, for
// prefetching: the figure's own benchmark list, and only the SMT levels its
// metric and speedup axes read.
func CellsFor(fig string) (benches []string, levels []int, sys System, err error) {
	switch fig {
	case "1":
		return Fig1Benchmarks, []int{1, 4}, P7OneChip, nil
	case "7":
		return Fig7Benchmarks, []int{1, 4}, P7OneChip, nil
	case "2", "6", "16", "17":
		return P7Benchmarks, []int{1, 4}, P7OneChip, nil
	case "8":
		return P7Benchmarks, []int{2, 4}, P7OneChip, nil
	case "9":
		return P7Benchmarks, []int{1, 2}, P7OneChip, nil
	case "11":
		return Fig11Benchmarks, []int{1, 4}, P7OneChip, nil
	case "10":
		return I7Benchmarks, []int{1, 2}, I7OneChip, nil
	case "12":
		return Fig12Benchmarks, []int{1, 2}, I7OneChip, nil
	case "13":
		return Fig13Benchmarks, []int{1, 4}, P7TwoChip, nil
	case "14":
		return Fig14Benchmarks, []int{2, 4}, P7TwoChip, nil
	case "15":
		return Fig15Benchmarks, []int{1, 2}, P7TwoChip, nil
	default:
		return nil, nil, System{}, fmt.Errorf("experiments: unknown figure %q", fig)
	}
}

// union merges benchmark lists preserving first-seen order.
func union(lists ...[]string) []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range lists {
		for _, b := range l {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// FigureCells describes one system's slice of the full-evaluation campaign.
type FigureCells struct {
	Sys     System
	Benches []string
	SMTs    []int
}

// AllFigureCells returns the cell sets that cover every table and figure of
// the paper — the full measurement campaign, deduplicated per system so a
// parallel sweep fills each cell exactly once.
func AllFigureCells() []FigureCells {
	return []FigureCells{
		{Sys: P7OneChip, Benches: P7Benchmarks, SMTs: []int{1, 2, 4}},
		{Sys: I7OneChip, Benches: union(I7Benchmarks, Fig12Benchmarks), SMTs: []int{1, 2}},
		{Sys: P7TwoChip, Benches: union(Fig13Benchmarks, Fig14Benchmarks, Fig15Benchmarks), SMTs: []int{1, 2, 4}},
	}
}
