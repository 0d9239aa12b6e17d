// Command smttrace records benchmark instruction streams to trace files and
// replays them on the simulated machine — the trace-driven workflow of
// classic architecture simulators.
//
// Usage:
//
//	smttrace record -bench EP -thread 0 -n 500000 -o ep.trc
//	smttrace replay -i ep.trc -arch power7 -smt 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/smtsm"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: smttrace record|replay [flags]")
	os.Exit(2)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	benchName := fs.String("bench", "EP", "benchmark to trace")
	// The default instantiation is single-threaded so barriers and locks
	// pass through instantly; recording one thread of a wider instance
	// would capture it spinning at the first barrier, waiting for peers
	// that never run.
	threads := fs.Int("threads", 1, "threads the workload is instantiated for")
	threadID := fs.Int("thread", 0, "which thread's stream to record")
	n := fs.Int64("n", 400_000, "instructions to record")
	out := fs.String("o", "out.trc", "output trace file")
	seed := fs.Uint64("seed", 42, "workload seed")
	fs.Parse(args)

	spec, err := workload.Get(*benchName)
	if err != nil {
		return err
	}
	inst, err := workload.Instantiate(spec, *threads, *seed)
	if err != nil {
		return err
	}
	if *threadID < 0 || *threadID >= *threads {
		return fmt.Errorf("thread %d out of range [0, %d)", *threadID, *threads)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	// The deferred Close covers the error paths; the success path closes
	// explicitly below and checks the error (the second Close is a no-op).
	defer f.Close()
	got, err := trace.Record(inst.Sources()[*threadID], *n, f)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", *out, err)
	}
	fmt.Printf("recorded %d instructions of %s thread %d to %s (%.1f KiB, %.2f B/instr)\n",
		got, spec.Name, *threadID, *out, float64(st.Size())/1024, float64(st.Size())/float64(got))
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "out.trc", "input trace file")
	archName := fs.String("arch", "power7", "architecture: power7, nehalem or smt8")
	smt := fs.Int("smt", 1, "SMT level")
	copies := fs.Int("copies", 1, "how many hardware threads replay the trace")
	fs.Parse(args)

	d, err := arch.ByName(*archName)
	if err != nil {
		return err
	}
	m, err := cpu.NewMachine(d, 1)
	if err != nil {
		return err
	}
	if err := m.SetSMTLevel(*smt); err != nil {
		return err
	}
	if *copies < 1 || *copies > m.HardwareThreads() {
		return fmt.Errorf("copies %d out of range [1, %d]", *copies, m.HardwareThreads())
	}

	srcs := make([]isa.Source, *copies)
	readers := make([]*trace.Reader, *copies)
	for i := range srcs {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		readers[i] = r
		srcs[i] = r
	}

	wall, err := m.RunContext(context.Background(), srcs, 0)
	if err != nil {
		return err
	}
	for i, r := range readers {
		if r.Err() != nil {
			return fmt.Errorf("replay %d: %w", i, r.Err())
		}
	}
	snap := m.Counters()
	fmt.Printf("replayed %s ×%d on %s @ SMT%d: %d cycles, IPC %.2f\n",
		*in, *copies, d.Name, *smt, wall, snap.IPC())
	fmt.Print(smtsm.Compute(d, &snap).String())
	return nil
}
