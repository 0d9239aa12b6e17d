package experiments

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestBenchmarkListsResolve checks every benchmark list against the
// workload library: each row of Figures, Figs. 1 and 7, and the
// sensitivity study's.
func TestBenchmarkListsResolve(t *testing.T) {
	lists := map[string][]string{
		"Fig1":        Fig1Benchmarks,
		"Fig7":        Fig7Benchmarks,
		"sensitivity": SensitivityBenchmarks,
	}
	for _, f := range Figures {
		lists[f.ID] = f.Benches
	}
	for name, list := range lists {
		if len(list) == 0 {
			t.Errorf("%s list empty", name)
		}
		seen := map[string]bool{}
		for _, b := range list {
			if _, err := workload.Get(b); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if seen[b] {
				t.Errorf("%s: duplicate %s", name, b)
			}
			seen[b] = true
		}
	}
}

func TestListSizesMatchPaper(t *testing.T) {
	// The paper's figures plot these many labelled points.
	if got := len(P7Benchmarks); got != 28 {
		t.Errorf("P7 set has %d benchmarks, want 28 (Fig. 6 labels)", got)
	}
	if got := len(I7Benchmarks); got != 21 {
		t.Errorf("I7 set has %d benchmarks, want 21 (Fig. 10 labels)", got)
	}
	if got := len(Fig12Benchmarks); got != 17 {
		t.Errorf("Fig12 set has %d benchmarks, want 17", got)
	}
	if got := len(Fig13Benchmarks); got != 25 {
		t.Errorf("Fig13 set has %d benchmarks, want 25", got)
	}
}

// TestCellsFor pins the cells each figure prefetches, and the full
// campaign's per-system cell sets: systems, benchmark lists in order, and
// SMT levels.
func TestCellsFor(t *testing.T) {
	for _, c := range []struct {
		fig     string
		sys     System
		benches []string
		levels  []int
	}{
		{"1", P7OneChip, Fig1Benchmarks, []int{1, 4}},
		{"2", P7OneChip, P7Benchmarks, []int{1, 4}},
		{"6", P7OneChip, P7Benchmarks, []int{1, 4}},
		{"7", P7OneChip, Fig7Benchmarks, []int{1, 4}},
		{"8", P7OneChip, P7Benchmarks, []int{2, 4}},
		{"9", P7OneChip, P7Benchmarks, []int{1, 2}},
		{"10", I7OneChip, I7Benchmarks, []int{1, 2}},
		{"11", P7OneChip, Fig11Benchmarks, []int{1, 4}},
		{"12", I7OneChip, Fig12Benchmarks, []int{1, 2}},
		{"13", P7TwoChip, Fig13Benchmarks, []int{1, 4}},
		{"14", P7TwoChip, Fig14Benchmarks, []int{2, 4}},
		{"15", P7TwoChip, Fig15Benchmarks, []int{1, 2}},
		{"16", P7OneChip, P7Benchmarks, []int{1, 4}},
		{"17", P7OneChip, P7Benchmarks, []int{1, 4}},
	} {
		benches, levels, sys, err := CellsFor(c.fig)
		if err != nil {
			t.Fatalf("fig %s: %v", c.fig, err)
		}
		if sys.Name != c.sys.Name || sys.Chips != c.sys.Chips ||
			!slices.Equal(benches, c.benches) || !slices.Equal(levels, c.levels) {
			t.Errorf("fig %s: cells %s/%d %v @%v, want %s/%d %v @%v", c.fig,
				sys.Name, sys.Chips, benches, levels, c.sys.Name, c.sys.Chips, c.benches, c.levels)
		}
	}
	if _, _, _, err := CellsFor("99"); err == nil {
		t.Fatal("unknown figure accepted")
	}

	want := []FigureCells{
		{Sys: P7OneChip, Benches: P7Benchmarks, SMTs: []int{1, 2, 4}},
		{Sys: I7OneChip, Benches: append(slices.Clone(I7Benchmarks), "Canneal"), SMTs: []int{1, 2}},
		{Sys: P7TwoChip, Benches: append(slices.Clone(Fig13Benchmarks), "MG_MPI", "LU_MPI"), SMTs: []int{1, 2, 4}},
	}
	got := AllFigureCells()
	if len(got) != len(want) {
		t.Fatalf("AllFigureCells has %d systems, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Sys.Name != w.Sys.Name || g.Sys.Chips != w.Sys.Chips ||
			!slices.Equal(g.Benches, w.Benches) || !slices.Equal(g.SMTs, w.SMTs) {
			t.Errorf("AllFigureCells[%d] = %s/%d %v @%v, want %s/%d %v @%v", i,
				g.Sys.Name, g.Sys.Chips, g.Benches, g.SMTs, w.Sys.Name, w.Sys.Chips, w.Benches, w.SMTs)
		}
	}
}

func TestMatrixCachesCells(t *testing.T) {
	skipHeavySim(t)
	m := NewMatrix(P7OneChip, DefaultSeed)
	c1 := m.Cell(context.Background(), "EP", 1)
	c2 := m.Cell(context.Background(), "EP", 1)
	if c1 != c2 {
		t.Fatal("matrix did not cache the cell")
	}
	if c1.Err != nil {
		t.Fatal(c1.Err)
	}
	if c1.Wall <= 0 || c1.Snap.Retired == 0 {
		t.Fatalf("empty cell: %+v", c1)
	}
}

func TestSpeedupDefinition(t *testing.T) {
	skipHeavySim(t)
	m := NewMatrix(P7OneChip, DefaultSeed)
	s := m.Speedup(context.Background(), "EP", 4, 1)
	w4 := m.Cell(context.Background(), "EP", 4).Wall
	w1 := m.Cell(context.Background(), "EP", 1).Wall
	if math.Abs(s-float64(w1)/float64(w4)) > 1e-12 {
		t.Fatalf("speedup %v != wall ratio %v/%v", s, w1, w4)
	}
}

// TestFig6HeadlineClaims verifies the paper's central results end-to-end on
// a reduced benchmark set (kept small so `go test` stays minutes, not
// hours): the metric measured at SMT4 separates SMT4-preferring from
// SMT1-preferring workloads.
func TestFig6HeadlineClaims(t *testing.T) {
	skipHeavySim(t)
	m := NewMatrix(P7OneChip, DefaultSeed)
	f := fig6
	f.Benches = []string{"EP", "Blackscholes", "Fluidanimate", "Stream", "SSCA2", "SPECjbb_contention", "Dedup", "Swim"}
	res := f.Run(context.Background(), m)
	if len(res.Points) != len(f.Benches) {
		t.Fatalf("%d points, want %d", len(res.Points), len(f.Benches))
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("subset success rate %.2f, want >= 0.85 (paper: 0.93)", res.Accuracy)
	}
	// The winners must carry smaller metrics than the losers.
	get := func(name string) FigPoint {
		for _, p := range res.Points {
			if p.Bench == name {
				return p
			}
		}
		t.Fatalf("point %s missing", name)
		return FigPoint{}
	}
	ep, cont := get("EP"), get("SPECjbb_contention")
	if ep.Speedup <= 1.5 {
		t.Errorf("EP speedup %.2f, want > 1.5", ep.Speedup)
	}
	if cont.Speedup >= 0.8 {
		t.Errorf("SPECjbb_contention speedup %.2f, want < 0.8", cont.Speedup)
	}
	if ep.Metric >= cont.Metric {
		t.Errorf("EP metric %.4f not below contention metric %.4f", ep.Metric, cont.Metric)
	}
}

// TestFig11MetricBreaksDownAtSMT1 verifies the paper's finding that the
// metric must be measured at the highest SMT level: measured at SMT1 it
// cannot foresee contention, so contended workloads look as SMT-friendly as
// scalable ones.
func TestFig11MetricBreaksDownAtSMT1(t *testing.T) {
	skipHeavySim(t)
	m := NewMatrix(P7OneChip, DefaultSeed)
	// At SMT4 the contended workload's metric towers over EP's; at SMT1
	// the gap collapses (less contention is visible with 8 threads).
	ep4 := m.Cell(context.Background(), "EP", 4).Metric.Value
	cont4 := m.Cell(context.Background(), "SPECjbb_contention", 4).Metric.Value
	ep1 := m.Cell(context.Background(), "EP", 1).Metric.Value
	cont1 := m.Cell(context.Background(), "SPECjbb_contention", 1).Metric.Value
	gapAt4 := cont4 / ep4
	gapAt1 := cont1 / ep1
	if gapAt1 >= gapAt4 {
		t.Fatalf("metric gap at SMT1 (%.1fx) not smaller than at SMT4 (%.1fx)", gapAt1, gapAt4)
	}
	// And the absolute SMT1 metrics sit far below the SMT4 threshold
	// (~0.21), which is why thresholding them mispredicts.
	if cont1 > cont4 {
		t.Fatalf("contention metric did not shrink at SMT1 (%.3f vs %.3f)", cont1, cont4)
	}
}

// TestFig2NoStrongCorrelation verifies the motivation result: naive
// single-number statistics do not predict SMT speedup.
func TestFig2NoStrongCorrelation(t *testing.T) {
	skipHeavySim(t)
	m := NewMatrix(P7OneChip, DefaultSeed)
	// A subset keeps the runtime bounded; the correlation claim holds on
	// any diverse slice of the suite.
	res := fig2Subset(context.Background(), m, []string{
		"EP", "Blackscholes", "Stream", "Swim", "SSCA2",
		"SPECjbb_contention", "Dedup", "IS", "BT", "CG_MPI",
	})
	for i, r := range res.Correlations {
		if math.Abs(r) > 0.75 {
			t.Errorf("statistic %d correlates at %.2f with speedup; the paper's "+
				"point is that no naive statistic is a strong predictor", i, r)
		}
	}
}

func TestAmbiguousBand(t *testing.T) {
	// Synthetic matrix-free check through Figure.Run is not possible (it
	// needs cells), so verify the band arithmetic on a tiny simulated
	// subset instead.
	skipHeavySim(t)
	m := NewMatrix(P7OneChip, DefaultSeed)
	f := fig6
	f.Benches = []string{"EP", "Stream"}
	res := f.Run(context.Background(), m)
	// EP (winner, low metric) and Stream (loser, high metric) separate
	// perfectly: the band must be empty.
	if res.AmbiguousLo <= res.AmbiguousHi {
		t.Fatalf("ambiguous band [%v, %v] for a separable pair", res.AmbiguousLo, res.AmbiguousHi)
	}
}
