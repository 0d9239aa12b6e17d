package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/threshold"
	"repro/internal/workload"
)

// Golden regression gate: every table/figure dataset serializes to
// canonical JSON under testdata/golden/, so any change to simulator
// semantics shows up as a reviewable diff. The figure datasets are computed
// over reduced benchmark subsets (chosen to include clear SMT winners,
// clear losers and middle-ground cases) so the whole gate stays ~1-2
// minutes of simulation instead of the full campaign's tens of minutes;
// the pipeline exercised — sweep, metric, speedup, threshold search — is
// exactly the one the full figures use.
//
// After an intentional semantics change, regenerate with:
//
//	go test ./internal/experiments -run TestGolden -update
var (
	goldenP7 = []string{"EP", "Dedup", "Stream", "SSCA2", "Swim", "SPECjbb_contention"}
	goldenI7 = []string{"BT", "Dedup", "Streamcluster", "FT"}
	goldenX2 = []string{"EP", "MG", "Stream", "Dedup", "SPECjbb_contention"}
	// goldenFig7 is the Fig. 7 instruction-mix subset (cells shared with
	// goldenP7 where possible).
	goldenFig7 = []string{"Dedup", "SSCA2", "SPECjbb_contention"}
)

// TestGoldenTable1 pins Table I (the benchmark inventory). No simulation.
func TestGoldenTable1(t *testing.T) {
	type row struct {
		Label, Suite, Problem, Desc string
	}
	var rows []row
	for _, s := range workload.All() {
		rows = append(rows, row{s.Name, s.Suite, s.Problem, s.Desc})
	}
	golden.Assert(t, "table1", rows)
}

// TestGoldenFigures pins the datasets behind Figs. 1-2 and 6-17 (plus the
// ablation study) on reduced benchmark subsets. The matrices fill through
// the parallel Runner — the same engine cmd/experiments uses — so this test
// also regression-guards the sweep path end to end.
func TestGoldenFigures(t *testing.T) {
	skipHeavySim(t)
	p7 := NewMatrix(P7OneChip, DefaultSeed)
	i7 := NewMatrix(I7OneChip, DefaultSeed)
	x2 := NewMatrix(P7TwoChip, DefaultSeed)
	r := &Runner{}
	stats, err := r.Campaign(context.Background(), []SweepSpec{
		{Matrix: p7, Benches: goldenP7, SMTs: []int{1, 2, 4}},
		// Fig. 1's fixed motivating trio (EP already swept above).
		{Matrix: p7, Benches: []string{"Equake", "MG"}, SMTs: []int{1, 4}},
		{Matrix: i7, Benches: goldenI7, SMTs: []int{1, 2}},
		{Matrix: x2, Benches: goldenX2, SMTs: []int{1, 2, 4}},
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if stats.Failed > 0 || stats.Skipped > 0 {
		t.Fatalf("campaign: %d failed, %d skipped cells", stats.Failed, stats.Skipped)
	}
	t.Logf("campaign: %d cells, %.1fs wall, %.1fs serial-equivalent (%.1fx, %d workers)",
		stats.Cells, stats.Elapsed.Seconds(), stats.CellTime.Seconds(), stats.Speedup(), stats.Workers)

	golden.Assert(t, "fig1", Fig1(context.Background(), p7))
	golden.Assert(t, "fig2", fig2Subset(context.Background(), p7, goldenP7))
	golden.Assert(t, "fig7", Fig7Of(context.Background(), p7, goldenFig7))

	// The scatter figures: each paper row on its own system's matrix and
	// golden subset. The portability rows have no golden file.
	subsets := map[string]struct {
		m       *Matrix
		benches []string
	}{
		P7OneChip.Name: {p7, goldenP7},
		I7OneChip.Name: {i7, goldenI7},
		P7TwoChip.Name: {x2, goldenX2},
	}
	var golden6 FigResult
	for _, f := range Figures {
		sub, ok := subsets[f.Sys.Name]
		if !ok {
			continue
		}
		f.Benches = sub.benches
		f.Title = "golden subset of Fig. " + strings.TrimPrefix(f.ID, "fig")
		res := f.Run(context.Background(), sub.m)
		golden.Assert(t, f.ID, res)
		if f.ID == fig6.ID {
			golden6 = res
		}
	}

	// Figs. 16-17: the threshold-search curves over the Fig. 6 points.
	if g, err := threshold.GiniSearch(figPoints(golden6)); err != nil {
		t.Errorf("fig16: %v", err)
	} else {
		golden.Assert(t, "fig16", g)
	}
	if p, err := threshold.PPISearch(figPoints(golden6)); err != nil {
		t.Errorf("fig17: %v", err)
	} else {
		golden.Assert(t, "fig17", p)
	}

	// The ablation table rides on the already-computed P7 cells.
	ablation := fig6
	ablation.Benches = goldenP7
	golden.Assert(t, "ablation", AblationStudy(context.Background(), p7, ablation))
}
