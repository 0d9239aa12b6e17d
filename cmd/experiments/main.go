// Command experiments regenerates the paper's evaluation: every table and
// figure, rendered as terminal tables and ASCII scatter plots.
//
// Usage:
//
//	experiments -fig 6         # one figure
//	experiments -table 1       # Table I
//	experiments -all           # everything
//	experiments -fig 6 -seed 7 # different workload seed
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/threshold"
	"repro/internal/workload"
)

func main() {
	var (
		fig         = flag.String("fig", "", "figure to regenerate (1, 2, 6..17)")
		table       = flag.Int("table", 0, "table to regenerate (1)")
		all         = flag.Bool("all", false, "regenerate every table and figure")
		ablation    = flag.Bool("ablation", false, "run the metric-ablation and baseline-predictor study")
		portability = flag.Bool("portability", false, "validate the metric on the GenericSMT8 model")
		sensitivity = flag.Bool("sensitivity", false, "run the machine-parameter sensitivity study")
		seed        = flag.Uint64("seed", experiments.DefaultSeed, "workload seed")
		quiet       = flag.Bool("quiet", false, "skip ASCII plots, print only summaries")
		svgDir      = flag.String("svgdir", "", "also write each figure as an SVG file into this directory")
		workers     = flag.Int("workers", 0, "concurrent simulations while filling the run matrix (0 = GOMAXPROCS)")
		cellTimeout = flag.Duration("cell-timeout", 0, "wall-clock budget per benchmark run (0 = none)")
		progress    = flag.Bool("progress", true, "print one line per completed matrix cell")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProfile  = flag.String("memprofile", "", "write a post-campaign heap profile to this file")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -workers %d, need >= 0 (0 = GOMAXPROCS)\n", *workers)
		os.Exit(2)
	}
	if *cellTimeout < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -cell-timeout %v, need >= 0\n", *cellTimeout)
		os.Exit(2)
	}
	if *table != 0 && *table != 1 {
		fmt.Fprintf(os.Stderr, "experiments: -table %d, only Table 1 exists\n", *table)
		os.Exit(2)
	}

	haveMode := *all || *ablation || *portability || *sensitivity || *table == 1 || *fig != ""
	if !haveMode {
		flag.Usage()
		os.Exit(2)
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Profile paths are validated (files created, CPU profile started) here,
	// before any simulation work. Profiles are written by the deferred Stop
	// on a clean exit; a mid-campaign os.Exit on a figure error forfeits
	// them, like any crash would.
	profiler, profErr := prof.Start(*cpuProfile, *memProfile)
	if profErr != nil {
		fmt.Fprintln(os.Stderr, profErr)
		os.Exit(1)
	}

	// Ctrl-C cancels the sweep; cells already simulated are kept, so the
	// figures render from whatever completed (partial figures show up as a
	// reduced point count). All hard exits happen above this point: once the
	// signal handler is registered, every path returns normally so the
	// deferred stops run (exitlint enforces this shape).
	defer func() {
		if err := profiler.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := &runner{seed: *seed, quiet: *quiet, svgDir: *svgDir, cellBudget: *cellTimeout}
	runner.pool = &experiments.Runner{Workers: *workers, Now: time.Now}
	if *progress {
		runner.pool.OnEvent = func(ev experiments.Event) {
			if ev.Cached {
				return
			}
			errMsg := ""
			if ev.Err != nil {
				errMsg = ev.Err.Error()
			}
			fmt.Printf("  %s\n", report.CellProgress(ev.Seq, ev.Total,
				ev.Ref.Sys, ev.Ref.Bench, ev.Ref.SMT, ev.Elapsed.Seconds(), errMsg))
		}
	}
	switch {
	case *all:
		runner.table1()
		runner.prefetchAll(ctx)
		for _, f := range []string{"1", "2", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", "17"} {
			runner.figure(ctx, f)
		}
		runner.ablation(ctx)
		runner.portability(ctx)
	case *ablation:
		runner.ablation(ctx)
	case *portability:
		runner.portability(ctx)
	case *sensitivity:
		runner.sensitivity(ctx)
	case *table == 1:
		runner.table1()
	case *fig != "":
		runner.figure(ctx, *fig)
	}
	runner.campaignSummary()
}

type runner struct {
	seed       uint64
	quiet      bool
	svgDir     string
	cellBudget time.Duration // -cell-timeout, every matrix's CellBudget
	pool       *experiments.Runner
	total      experiments.Stats
	matrices   map[string]*experiments.Matrix
}

// sweep fills cells through the shared worker pool, accumulating
// campaign-wide statistics.
func (r *runner) sweep(ctx context.Context, specs ...experiments.SweepSpec) {
	stats, err := r.pool.Campaign(ctx, specs)
	r.total.Cells += stats.Cells
	r.total.Failed += stats.Failed
	r.total.Skipped += stats.Skipped
	r.total.Elapsed += stats.Elapsed
	r.total.CellTime += stats.CellTime
	if r.total.Workers < stats.Workers {
		r.total.Workers = stats.Workers
	}
	if stats.CellTime > 0 {
		fmt.Printf("  [sweep: %s]\n", report.RunStats(stats.Cells, stats.Failed, stats.Skipped,
			stats.Elapsed.Seconds(), stats.CellTime.Seconds(), stats.Speedup(), stats.Workers))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep interrupted: %v (rendering partial results)\n", err)
	}
}

// prefetchFig fills one figure's cells concurrently before rendering.
func (r *runner) prefetchFig(ctx context.Context, fig string) {
	benches, levels, sys, err := experiments.CellsFor(fig)
	if err != nil {
		return // table-style figures prefetch nothing
	}
	r.sweep(ctx, experiments.SweepSpec{Matrix: r.matrix(sys), Benches: benches, SMTs: levels})
}

// prefetchAll fills every figure's cells in one shared-pool campaign, so
// the whole-evaluation replay parallelises across systems too.
func (r *runner) prefetchAll(ctx context.Context) {
	var specs []experiments.SweepSpec
	for _, fc := range experiments.AllFigureCells() {
		specs = append(specs, experiments.SweepSpec{Matrix: r.matrix(fc.Sys), Benches: fc.Benches, SMTs: fc.SMTs})
	}
	fmt.Println("== Filling the full run matrix (parallel deterministic sweep) ==")
	r.sweep(ctx, specs...)
}

// campaignSummary reports the whole invocation's sweep statistics.
func (r *runner) campaignSummary() {
	if r.total.CellTime == 0 {
		return
	}
	fmt.Printf("[campaign total: %s]\n", report.RunStats(r.total.Cells, r.total.Failed, r.total.Skipped,
		r.total.Elapsed.Seconds(), r.total.CellTime.Seconds(), r.total.Speedup(), r.total.Workers))
}

// writeSVG saves an SVG document for a figure when -svgdir is set.
func (r *runner) writeSVG(name, doc string) {
	if r.svgDir == "" {
		return
	}
	path := filepath.Join(r.svgDir, name+".svg")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("(wrote %s)\n", path)
}

// matrix returns the (cached) run matrix for a system.
func (r *runner) matrix(sys experiments.System) *experiments.Matrix {
	if r.matrices == nil {
		r.matrices = map[string]*experiments.Matrix{}
	}
	if m, ok := r.matrices[sys.Name]; ok {
		return m
	}
	m := experiments.NewMatrix(sys, r.seed)
	// The budget bounds every cell, swept by the worker pool or computed on
	// the render path (figure code calling Matrix.Cell): after a Ctrl-C or
	// timed-out sweep, figures render the completed cells instead of
	// re-simulating the missing ones without bound.
	m.CellBudget = r.cellBudget
	r.matrices[sys.Name] = m
	return m
}

func (r *runner) table1() {
	fmt.Println("== Table I: Benchmarks Evaluated ==")
	t := report.NewTable("Label", "Suite", "Problem Size", "Description")
	for _, s := range workload.All() {
		t.AddRow(s.Name, s.Suite, s.Problem, s.Desc)
	}
	fmt.Println(t)
}

func (r *runner) figure(ctx context.Context, fig string) {
	t0 := time.Now()
	r.prefetchFig(ctx, fig)
	switch fig {
	case "1":
		m := r.matrix(experiments.P7OneChip)
		res := experiments.Fig1(ctx, m)
		fmt.Println("== Fig. 1: SMT1 vs SMT4 performance, 8-core POWER7 ==")
		fmt.Println("(bars are SMT4 performance normalised to SMT1; 1.0 = no change)")
		fmt.Print(report.Bars("SMT4 performance / SMT1 performance", res.Benches, res.Normalized, "x"))
		r.writeSVG("fig1", report.BarsSVG("Fig. 1: SMT4 performance normalised to SMT1 (POWER7)",
			res.Benches, res.Normalized, "x"))
	case "2":
		m := r.matrix(experiments.P7OneChip)
		res := experiments.Fig2(ctx, m)
		fmt.Println("== Fig. 2: SMT4/SMT1 speedup vs naive single-number statistics (POWER7) ==")
		t := report.NewTable("bench", "L1 MPKI", "CPI", "BrMPKI", "%VSU", "SMT4/SMT1")
		for _, row := range res.Rows {
			t.AddRowf(row.Bench, row.L1MPKI, row.CPI, row.BrMPKI, row.VSUShare, row.Speedup)
		}
		fmt.Println(t)
		fmt.Printf("Pearson r against speedup:  L1 MPKI %.3f   CPI %.3f   BrMPKI %.3f   %%VSU %.3f\n",
			res.Correlations[0], res.Correlations[1], res.Correlations[2], res.Correlations[3])
		fmt.Println("(the paper's point: none of these correlates strongly with SMT benefit)")
		if !r.quiet {
			for i, name := range []string{"L1 MPKI", "CPI", "Branch MPKI", "% VSU instructions"} {
				sc := report.Scatter{
					Title:  fmt.Sprintf("Fig. 2 panel: speedup vs %s", name),
					XLabel: name, YLabel: "SMT4/SMT1 speedup", BreakEvenY: 1,
					Width: 64, Height: 16,
				}
				for _, row := range res.Rows {
					x := [4]float64{row.L1MPKI, row.CPI, row.BrMPKI, row.VSUShare}[i]
					sc.Points = append(sc.Points, report.ScatterPoint{X: x, Y: row.Speedup, Label: row.Bench})
				}
				fmt.Println(sc.String())
			}
		}
	case "7":
		m := r.matrix(experiments.P7OneChip)
		rows := experiments.Fig7(ctx, m)
		fmt.Println("== Fig. 7: instruction mix of 5 benchmarks (POWER7, measured @SMT4) ==")
		t := report.NewTable("bench", "%loads", "%stores", "%branches", "%FXU", "%VSU", "SMT4/SMT1")
		for _, row := range rows {
			sp := ""
			if row.Speedup > 0 {
				sp = fmt.Sprintf("%.2f", row.Speedup)
			}
			t.AddRow(row.Bench,
				fmt.Sprintf("%.1f", row.Loads), fmt.Sprintf("%.1f", row.Stores),
				fmt.Sprintf("%.1f", row.Branches), fmt.Sprintf("%.1f", row.FXU),
				fmt.Sprintf("%.1f", row.VSU), sp)
		}
		fmt.Println(t)
	case "16":
		m := r.matrix(experiments.P7OneChip)
		res, err := experiments.Fig16(ctx, m)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("== Fig. 16: Gini impurity vs candidate separator (POWER7, SMT4/SMT1) ==")
		fmt.Printf("optimal separator range [%.4f, %.4f], min impurity %.3f\n",
			res.Lo, res.Hi, res.MinImpurity)
		r.curve("impurity", res.Curve)
		r.writeSVG("fig16", curveSVG("Fig. 16: Gini impurity vs separator", "separator", "impurity", res.Curve))
	case "17":
		m := r.matrix(experiments.P7OneChip)
		res, err := experiments.Fig17(ctx, m)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("== Fig. 17: average % performance improvement vs threshold (POWER7, SMT4/SMT1) ==")
		fmt.Printf("best threshold %.4f with average improvement %.1f%%\n", res.Best, res.BestPPI)
		r.curve("avg PPI (%)", res.Curve)
		r.writeSVG("fig17", curveSVG("Fig. 17: average %PPI vs threshold", "threshold", "avg PPI (%)", res.Curve))
	default:
		r.scatterFigure(ctx, fig)
	}
	fmt.Printf("[fig %s done in %.1fs]\n\n", fig, time.Since(t0).Seconds())
}

// scatterFigure renders one of the metric-vs-speedup figures.
func (r *runner) scatterFigure(ctx context.Context, fig string) {
	f, err := experiments.ScatterFigure(fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res := f.Run(ctx, r.matrix(f.Sys))
	fmt.Printf("== Fig. %s: %s ==\n", fig, res.Title)
	fmt.Println(pointTable(res))
	fmt.Printf("threshold %.4f: success rate %.0f%% (gini range [%.4f, %.4f], impurity %.3f; spearman %.2f)",
		res.Threshold, 100*res.Accuracy, res.GiniLo, res.GiniHi, res.MinImpurity, res.Spearman)
	if len(res.Misclassified) > 0 {
		fmt.Printf("; mispredicted: %v", res.Misclassified)
	}
	fmt.Println()
	if res.AmbiguousLo <= res.AmbiguousHi {
		fmt.Printf("ambiguous band: no single threshold classifies metrics in [%.4f, %.4f]\n",
			res.AmbiguousLo, res.AmbiguousHi)
	}
	sc := report.Scatter{
		Title:  fmt.Sprintf("Fig. %s: %s", fig, res.Title),
		XLabel: fmt.Sprintf("SMT-selection metric @SMT%d", res.MetricAt),
		YLabel: fmt.Sprintf("SMT%d/SMT%d speedup", res.SpeedupHi, res.SpeedupLo),
		Width:  64, Height: 20,
		Threshold: res.Threshold, BreakEvenY: 1,
	}
	for _, p := range res.Points {
		sc.Points = append(sc.Points, report.ScatterPoint{X: p.Metric, Y: p.Speedup, Label: p.Bench})
	}
	if !r.quiet {
		fmt.Println(sc.String())
	}
	r.writeSVG("fig"+fig, sc.SVG())
}

// pointTable lists a scatter figure's points, each classified by the
// figure's threshold.
func pointTable(res experiments.FigResult) *report.Table {
	t := report.NewTable("bench", "metric", "speedup", "classified")
	for _, p := range res.Points {
		ok := "ok"
		if (p.Metric < res.Threshold) != (p.Speedup >= 1) {
			ok = "MISPREDICTED"
		}
		t.AddRow(p.Bench, fmt.Sprintf("%.4f", p.Metric), fmt.Sprintf("%.2f", p.Speedup), ok)
	}
	return t
}

// ablation runs the metric-ablation and baseline-predictor study on
// Fig. 6's row.
func (r *runner) ablation(ctx context.Context) {
	f, err := experiments.ScatterFigure("6")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r.prefetchFig(ctx, "6")
	res := experiments.AblationStudy(ctx, r.matrix(f.Sys), f)
	fmt.Println("== Ablation & baseline study: SMT4-vs-SMT1 preference prediction (POWER7) ==")
	fmt.Println("(each predictor gets its best threshold and orientation)")
	t := report.NewTable("predictor", "kind", "accuracy", "mispredicted")
	for _, p := range res {
		t.AddRow(p.Name, p.Kind, fmt.Sprintf("%.0f%%", 100*p.Accuracy),
			fmt.Sprintf("%v", p.Misclassified))
	}
	fmt.Println(t)
}

// portability validates the metric on the GenericSMT8 architecture,
// sweeping the cells of its rows of the figure table.
func (r *runner) portability(ctx context.Context) {
	fc := experiments.SystemCells(experiments.SMT8OneChip)
	m := r.matrix(fc.Sys)
	r.sweep(ctx, experiments.SweepSpec{Matrix: m, Benches: fc.Benches, SMTs: fc.SMTs})
	res := experiments.Portability(ctx, m)
	for _, fr := range []experiments.FigResult{res.Smt8VsSmt1, res.Smt8VsSmt4} {
		fmt.Printf("== Portability: %s ==\n", fr.Title)
		fmt.Println(pointTable(fr))
		fmt.Printf("gini threshold %.4f: success rate %.0f%%; mispredicted: %v\n\n",
			fr.Threshold, 100*fr.Accuracy, fr.Misclassified)
	}
}

// sensitivity reports the metric's robustness to machine parameters.
func (r *runner) sensitivity(ctx context.Context) {
	fmt.Println("== Sensitivity: Fig. 6 methodology under machine-parameter variants ==")
	fmt.Printf("(%d benchmarks per variant)\n", len(experiments.SensitivityBenchmarks))
	rows, err := experiments.Sensitivity(ctx, r.seed)
	t := report.NewTable("variant", "threshold", "accuracy", "spearman", "separable")
	for _, row := range rows {
		t.AddRow(row.Variant, fmt.Sprintf("%.4f", row.Threshold),
			fmt.Sprintf("%.0f%%", 100*row.Accuracy),
			fmt.Sprintf("%.2f", row.Spearman),
			fmt.Sprintf("%v", row.Separable))
	}
	fmt.Println(t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sensitivity interrupted: %v (rows above are partial)\n", err)
	}
}

// curveSVG converts a threshold curve into an SVG document.
func curveSVG(title, xlabel, ylabel string, pts []threshold.CurvePoint) string {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.Separator, p.Value
	}
	return report.CurveSVG(title, xlabel, ylabel, xs, ys)
}

// curve renders a threshold curve as a scatter.
func (r *runner) curve(ylabel string, pts []threshold.CurvePoint) {
	if r.quiet {
		return
	}
	sc := report.Scatter{
		XLabel: "candidate threshold", YLabel: ylabel,
		Width: 64, Height: 16,
	}
	for _, p := range pts {
		sc.Points = append(sc.Points, report.ScatterPoint{X: p.Separator, Y: p.Value})
	}
	fmt.Println(sc.String())
}
