package experiments

import (
	"context"

	"repro/internal/arch"
)

// Sensitivity study: how robust is the metric's class separation to the
// machine parameters the simulator had to choose? For each variant of the
// POWER7 model (memory bandwidth halved/doubled, reorder window
// halved/doubled, L3 quartered, mispredict penalty doubled), the Fig. 6
// methodology re-runs on a benchmark subset. A robust result keeps the
// SMT-winners below the SMT-losers in metric order even as the absolute
// threshold moves — which is why the paper (and this repository) calibrate
// the threshold per system rather than hard-coding it.

// SensitivityVariant mutates a copy of the baseline architecture.
type SensitivityVariant struct {
	// Name labels the variant in reports.
	Name string
	// Mutate edits the architecture description in place.
	Mutate func(*arch.Desc)
}

// SensitivityVariants is the default variant set.
var SensitivityVariants = []SensitivityVariant{
	{Name: "baseline", Mutate: func(d *arch.Desc) {}},
	{Name: "mem-bandwidth ÷2", Mutate: func(d *arch.Desc) { d.Mem.MemCyclesPerLine *= 2 }},
	{Name: "mem-bandwidth ×2", Mutate: func(d *arch.Desc) {
		if d.Mem.MemCyclesPerLine > 1 {
			d.Mem.MemCyclesPerLine /= 2
		}
	}},
	{Name: "window ÷2", Mutate: func(d *arch.Desc) { d.WindowSize /= 2 }},
	{Name: "window ×2", Mutate: func(d *arch.Desc) { d.WindowSize *= 2 }},
	{Name: "L3 ÷4", Mutate: func(d *arch.Desc) { d.Mem.L3Size /= 4 }},
	{Name: "mispredict ×2", Mutate: func(d *arch.Desc) { d.MispredictPenalty *= 2 }},
	{Name: "issue queues ÷2", Mutate: func(d *arch.Desc) { d.PortQueueCap /= 2 }},
}

// SensitivityBenchmarks is the subset used by the study: two clear SMT
// winners, two clear losers, and two middle-ground cases — enough to expose
// a separation collapse without re-running the whole suite per variant.
var SensitivityBenchmarks = []string{
	"EP", "Blackscholes", "Fluidanimate",
	"MG", "Stream", "SSCA2", "SPECjbb_contention", "Dedup",
}

// SensitivityRow is one variant's outcome.
type SensitivityRow struct {
	Variant   string
	Threshold float64
	Accuracy  float64
	Spearman  float64
	// WinnersBelow reports whether every speedup>=1 benchmark carries a
	// smaller metric than every speedup<1 benchmark's maximum — perfect
	// separation irrespective of threshold choice.
	Separable bool
}

// Sensitivity runs Fig. 6's row, over SensitivityBenchmarks, on each
// architecture variant of its system; with no explicit variants it runs the
// default set. The variants' matrices fill through one shared worker pool,
// so the study parallelises across variants as well as across cells. A
// canceled ctx cuts the campaign short and is returned alongside the rows
// computed from whatever cells completed.
func Sensitivity(ctx context.Context, seed uint64, variants ...SensitivityVariant) ([]SensitivityRow, error) {
	if len(variants) == 0 {
		variants = SensitivityVariants
	}
	type entry struct {
		v       SensitivityVariant
		m       *Matrix // nil when the mutated architecture is invalid
		invalid error
	}
	var entries []entry
	var specs []SweepSpec
	f := fig6
	f.Benches = SensitivityBenchmarks
	for _, v := range variants {
		v := v
		sys := f.Sys
		sys.Name = "POWER7-" + v.Name
		sys.Arch = func() *arch.Desc {
			d := arch.POWER7()
			v.Mutate(d)
			return d
		}
		if err := sys.Arch().Validate(); err != nil {
			entries = append(entries, entry{v: v, invalid: err})
			continue
		}
		m := NewMatrix(sys, seed)
		entries = append(entries, entry{v: v, m: m})
		specs = append(specs, SweepSpec{Matrix: m, Benches: f.Benches, SMTs: f.levels()})
	}
	r := Runner{}
	_, err := r.Campaign(ctx, specs)

	var rows []SensitivityRow
	for _, e := range entries {
		if e.m == nil {
			rows = append(rows, SensitivityRow{Variant: e.v.Name + " (invalid: " + e.invalid.Error() + ")"})
			continue
		}
		res := f.Run(ctx, e.m)
		rows = append(rows, SensitivityRow{
			Variant:   e.v.Name,
			Threshold: res.Threshold,
			Accuracy:  res.Accuracy,
			Spearman:  res.Spearman,
			Separable: res.AmbiguousLo > res.AmbiguousHi,
		})
	}
	return rows, err
}
