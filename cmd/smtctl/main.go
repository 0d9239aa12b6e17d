// Command smtctl mirrors AIX's smtctl workflow on the simulated machine: it
// measures a workload's SMT-selection metric at the current (highest) SMT
// level, decides whether to switch, applies the change, and reports the
// outcome against a brute-force sweep of all levels.
//
// Usage:
//
//	smtctl -bench SPECjbb_contention
//	smtctl -bench EP -arch nehalem -threshold 0.15
//
// The place subcommand solves a thread-to-core placement for a JSON
// workload-mix file (an api.PlaceRequest), locally or against a running
// smtservd/smtrouter:
//
//	smtctl place -file mix.json
//	smtctl place -file mix.json -url http://127.0.0.1:8700
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	smtselect "repro"
	"repro/internal/arch"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "place" {
		os.Exit(runPlace(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		benchName = flag.String("bench", "SPECjbb_contention", "benchmark to tune")
		archName  = flag.String("arch", "power7", "architecture: power7, nehalem or smt8")
		chips     = flag.Int("chips", 1, "number of chips")
		thresh    = flag.Float64("threshold", 0.21, "SMT-selection metric threshold")
		seed      = flag.Uint64("seed", 42, "workload seed")
	)
	flag.Parse()
	if *chips < 1 {
		fmt.Fprintf(os.Stderr, "smtctl: -chips %d, need >= 1\n", *chips)
		os.Exit(2)
	}
	if !(*thresh > 0) || math.IsInf(*thresh, 0) {
		fmt.Fprintf(os.Stderr, "smtctl: -threshold %v, need a positive finite value\n", *thresh)
		os.Exit(2)
	}

	d, err := arch.ByName(*archName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtctl: %v\n", err)
		os.Exit(2)
	}

	spec, err := smtselect.Workload(*benchName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtctl: %v (known benchmarks: %s)\n",
			err, strings.Join(smtselect.WorkloadNames(), ", "))
		os.Exit(2)
	}

	m, err := smtselect.NewMachine(d, *chips)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Step 1: measure at the hardware default (the highest SMT level).
	fmt.Printf("measuring %s at SMT%d (hardware default) ...\n", spec.Name, d.MaxSMT)
	res, err := smtselect.RunWorkload(context.Background(), m, spec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  %d cycles; SMTsm = %.4f (mix %.4f × held %.4f × scal %.3f)\n",
		res.WallCycles, res.Metric.Value,
		res.Metric.MixDeviation, res.Metric.DispHeld, res.Metric.Scalability)

	// Step 2: decide.
	if !smtselect.PredictLowerSMT(res.Metric, *thresh) {
		fmt.Printf("metric %.4f <= threshold %.4f: keeping SMT%d\n",
			res.Metric.Value, *thresh, d.MaxSMT)
	} else {
		fmt.Printf("metric %.4f > threshold %.4f: switching to a lower SMT level\n",
			res.Metric.Value, *thresh)
		// Walk down levels while the metric stays above threshold,
		// re-measuring at each stop (each lower level re-runs the work
		// with proportionally fewer threads, as the paper's methodology
		// does).
		levels := d.SMTLevels
		for i := len(levels) - 2; i >= 0; i-- {
			level := levels[i]
			if err := m.SetSMTLevel(level); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			r, err := smtselect.RunWorkload(context.Background(), m, spec, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("  smtctl -t %d: %d cycles; SMTsm = %.4f\n", level, r.WallCycles, r.Metric.Value)
			if !smtselect.PredictLowerSMT(r.Metric, *thresh) {
				break
			}
		}
		fmt.Printf("settled at SMT%d\n", m.SMTLevel())
	}

	// Step 3: ground truth.
	fmt.Println("\nbrute-force sweep (ground truth):")
	best, all, err := smtselect.BestSMTLevel(context.Background(), d, *chips, spec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, level := range d.SMTLevels {
		mark := " "
		if level == best {
			mark = "*"
		}
		fmt.Printf(" %s SMT%d: %d cycles\n", mark, level, all[level].WallCycles)
	}
	if m.SMTLevel() == best {
		fmt.Println("\nsmtctl's choice matches the ground-truth optimum")
	} else {
		fmt.Printf("\nsmtctl chose SMT%d; ground-truth optimum is SMT%d\n", m.SMTLevel(), best)
	}
}
