package experiments

import (
	"context"
	"fmt"
	"slices"

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

// Figure is one metric-vs-speedup scatter figure: the speedup between two
// SMT levels plotted against SMTsm read at one level, over a benchmark set
// run on one system.
type Figure struct {
	// ID and Title identify the figure ("fig6", ...).
	ID, Title string
	// Sys is the system whose runs the figure plots.
	Sys System
	// Benches is the figure's benchmark set, in the paper's label order.
	Benches []string
	// MetricAt is the SMT level the metric is read at; Hi and Lo are the
	// speedup pair, wall(Lo)/wall(Hi).
	MetricAt, Hi, Lo int
}

// fig6 is the paper's headline result (93% prediction success). Figs. 2,
// 16 and 17 and the sensitivity study read its cells.
var fig6 = Figure{"fig6", "SMT4/SMT1 speedup vs metric @SMT4 (POWER7, 1 chip)", P7OneChip, P7Benchmarks, 4, 4, 1}

// The portability scatters validate the metric on the GenericSMT8 model,
// at the deepest level and at the intermediate SMT8/SMT4 decision.
var (
	smt8v1 = Figure{"smt8v1", "SMT8/SMT1 speedup vs metric @SMT8 (GenericSMT8)", SMT8OneChip, PortabilityBenchmarks, 8, 8, 1}
	smt8v4 = Figure{"smt8v4", "SMT8/SMT4 speedup vs metric @SMT8 (GenericSMT8)", SMT8OneChip, PortabilityBenchmarks, 8, 8, 4}
)

// Figures is the table of scatter figures: the paper's Figs. 6 and 8-15,
// then the two portability scatters.
var Figures = []Figure{
	fig6,
	{"fig8", "SMT4/SMT2 speedup vs metric @SMT4 (POWER7, 1 chip)", P7OneChip, P7Benchmarks, 4, 4, 2},
	// A band of metric values in which no prediction is possible.
	{"fig9", "SMT2/SMT1 speedup vs metric @SMT2 (POWER7, 1 chip)", P7OneChip, P7Benchmarks, 2, 2, 1},
	// 86% success; Streamcluster is the expected outlier.
	{"fig10", "SMT2/SMT1 speedup vs metric @SMT2 (Core i7)", I7OneChip, I7Benchmarks, 2, 2, 1},
	// Read at SMT1, the metric fails to predict, on both systems.
	{"fig11", "SMT4/SMT1 speedup vs metric @SMT1 (POWER7, 1 chip)", P7OneChip, Fig11Benchmarks, 1, 4, 1},
	{"fig12", "SMT2/SMT1 speedup vs metric @SMT1 (Core i7)", I7OneChip, Fig12Benchmarks, 1, 2, 1},
	// Two chips: more mispredictions and more SMT1-preferring applications
	// than Fig. 6; at SMT2 prediction is as ineffective as on one chip.
	{"fig13", "SMT4/SMT1 speedup vs metric @SMT4 (POWER7, 2 chips)", P7TwoChip, Fig13Benchmarks, 4, 4, 1},
	{"fig14", "SMT4/SMT2 speedup vs metric @SMT4 (POWER7, 2 chips)", P7TwoChip, Fig14Benchmarks, 4, 4, 2},
	{"fig15", "SMT2/SMT1 speedup vs metric @SMT2 (POWER7, 2 chips)", P7TwoChip, Fig15Benchmarks, 2, 2, 1},
	smt8v1,
	smt8v4,
}

// ScatterFigure returns the row of Figures that plots the paper's figure
// fig ("6", "8" ... "15").
func ScatterFigure(fig string) (Figure, error) {
	for _, f := range Figures {
		if f.ID == "fig"+fig {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("experiments: unknown figure %q", fig)
}

// levels returns the SMT levels the figure reads, ascending.
func (f Figure) levels() []int {
	l := []int{f.MetricAt, f.Hi, f.Lo}
	slices.Sort(l)
	return slices.Compact(l)
}

// points returns one observation per benchmark of the figure whose cell at
// MetricAt ran and whose speedup is positive: value read off that cell,
// against the speedup.
func (f Figure) points(ctx context.Context, m *Matrix, value func(*Cell) float64) []threshold.Point {
	var pts []threshold.Point
	for _, b := range f.Benches {
		c := m.Cell(ctx, b, f.MetricAt)
		if c.Err != nil {
			continue
		}
		sp := m.Speedup(ctx, b, f.Hi, f.Lo)
		if sp <= 0 {
			continue
		}
		pts = append(pts, threshold.Point{Metric: value(c), Speedup: sp, Label: b})
	}
	return pts
}

// Run builds the figure from a run matrix of its system.
func (f Figure) Run(ctx context.Context, m *Matrix) FigResult {
	r := FigResult{ID: f.ID, Title: f.Title, MetricAt: f.MetricAt, SpeedupHi: f.Hi, SpeedupLo: f.Lo}
	pts := f.points(ctx, m, func(c *Cell) float64 { return c.Metric.Value })
	for _, p := range pts {
		r.Points = append(r.Points, FigPoint{Bench: p.Label, Metric: p.Metric, Speedup: p.Speedup})
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

// Fig2 reproduces Fig. 2's scatter panels over Fig. 6's benchmarks.
func Fig2(ctx context.Context, m *Matrix) Fig2Result {
	return fig2Subset(ctx, m, fig6.Benches)
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
	return threshold.GiniSearch(figPoints(fig6.Run(ctx, m)))
}

// Fig17 reproduces Fig. 17: the average-PPI curve over candidate thresholds
// for the Fig. 6 data.
func Fig17(ctx context.Context, m *Matrix) (threshold.PPIResult, error) {
	return threshold.PPISearch(figPoints(fig6.Run(ctx, m)))
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
// metric and speedup axes read. Figs. 2, 16 and 17 read Fig. 6's cells.
func CellsFor(fig string) (benches []string, levels []int, sys System, err error) {
	switch fig {
	case "1":
		return Fig1Benchmarks, []int{1, 4}, P7OneChip, nil
	case "7":
		return Fig7Benchmarks, []int{1, 4}, P7OneChip, nil
	case "2", "16", "17":
		fig = "6"
	}
	f, err := ScatterFigure(fig)
	if err != nil {
		return nil, nil, System{}, err
	}
	return f.Benches, f.levels(), f.Sys, nil
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

// SystemCells returns the cells the rows of Figures on sys read: the union
// of their benchmarks, in row order, at the union of their levels.
func SystemCells(sys System) FigureCells {
	fc := FigureCells{Sys: sys}
	for _, f := range Figures {
		if f.Sys.Name == sys.Name {
			fc.Benches = union(fc.Benches, f.Benches)
			fc.SMTs = append(fc.SMTs, f.levels()...)
		}
	}
	slices.Sort(fc.SMTs)
	fc.SMTs = slices.Compact(fc.SMTs)
	return fc
}

// AllFigureCells returns the cell sets that cover every table and figure of
// the paper — the full measurement campaign, deduplicated per system so a
// parallel sweep fills each cell exactly once. Each of the paper's systems
// gets SystemCells; Figs. 1 and 7 read a subset of Fig. 6's cells.
func AllFigureCells() []FigureCells {
	var out []FigureCells
	for _, sys := range []System{P7OneChip, I7OneChip, P7TwoChip} {
		out = append(out, SystemCells(sys))
	}
	return out
}
