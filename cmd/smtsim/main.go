// Command smtsim runs a single workload on the simulated machine at one SMT
// level and prints the performance counters and the SMT-selection metric —
// the simulator equivalent of running a benchmark under a PMU profiler.
//
// Usage:
//
//	smtsim -bench EP -arch power7 -chips 1 -smt 4
//	smtsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/cpu"
	"repro/internal/prof"
	"repro/internal/workload"
)

func main() {
	var (
		benchName  = flag.String("bench", "EP", "benchmark name (see -list)")
		specFile   = flag.String("spec", "", "load a custom workload spec from a JSON file instead of -bench")
		archName   = flag.String("arch", "power7", "architecture: power7, nehalem or smt8")
		chips      = flag.Int("chips", 1, "number of chips")
		smt        = flag.Int("smt", 0, "SMT level (0 = architecture maximum)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		maxCycles  = flag.Int64("maxcycles", 200_000_000, "simulation cycle limit")
		list       = flag.Bool("list", false, "list available benchmarks and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile for the run to this file")
		memProfile = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()

	if *list {
		for _, s := range workload.All() {
			fmt.Printf("%-22s %-12s %-28s %s\n", s.Name, s.Suite, s.Problem, s.Desc)
		}
		return
	}

	d, err := arch.ByName(*archName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var spec *workload.Spec
	if *specFile != "" {
		spec, err = workload.LoadSpecFile(*specFile)
	} else {
		spec, err = workload.Get(*benchName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	m, machineErr := cpu.NewMachine(d, *chips)
	if machineErr != nil {
		fmt.Fprintln(os.Stderr, machineErr)
		os.Exit(1)
	}
	level := *smt
	if level == 0 {
		level = d.MaxSMT
	}
	if err := m.SetSMTLevel(level); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%s on %s (%d chip(s), %d cores) @ SMT%d with %d software threads\n",
		spec.Name, d.Name, m.NumChips(), m.NumCores(), level, m.HardwareThreads())

	// Profile exactly the measured run (the workload's instantiation and
	// its simulation); flag typos fail here, before the run.
	// The profiler is stopped explicitly (not deferred) so this function
	// keeps its straight-line os.Exit error handling.
	profiler, profErr := prof.Start(*cpuProfile, *memProfile)
	if profErr != nil {
		fmt.Fprintln(os.Stderr, profErr)
		os.Exit(1)
	}

	t0 := time.Now()
	res, err := controller.Measure(context.Background(), m, []controller.Part{{Spec: spec, Seed: *seed}}, *maxCycles)
	hostDur := time.Since(t0)
	if stopErr := profiler.Stop(); stopErr != nil {
		fmt.Fprintln(os.Stderr, stopErr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "run: %v (after %d cycles)\n", err, res.WallCycles)
		os.Exit(1)
	}

	fmt.Printf("\nwall: %d cycles  (host %.2fs, %.2f Mcycles/s, %.2f Minstr/s)\n",
		res.WallCycles, hostDur.Seconds(),
		float64(res.WallCycles)/1e6/hostDur.Seconds(),
		float64(res.Snapshot.Retired)/1e6/hostDur.Seconds())
	fmt.Printf("useful instructions: %d, spin instructions: %d\n\n", res.UsefulInstrs, res.SpinInstrs)
	fmt.Print(res.Snapshot.String())
	fmt.Println()
	fmt.Print(res.Metric.String())
}
