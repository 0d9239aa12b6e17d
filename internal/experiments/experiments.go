// Package experiments reproduces the paper's evaluation: it runs the
// benchmark suite over the simulated systems at every SMT level and
// regenerates each table and figure of the paper (Table I, Figs. 1-2, 6-17).
//
// A Matrix caches one simulation per (benchmark, SMT level) cell of a
// system, so figures that share data (e.g. Figs. 6, 8 and 9 all need the
// POWER7 runs at SMT1/2/4) reuse the same runs, exactly as the paper's
// tables are all cut from one measurement campaign.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/smtsm"
	"repro/internal/workload"
)

// System is one machine configuration of the paper's methodology section.
type System struct {
	// Name labels the system in reports.
	Name string
	// Arch constructs the architecture description.
	Arch func() *arch.Desc
	// Chips is the package count (the paper uses one and two POWER7
	// chips, one Nehalem chip).
	Chips int
}

// The three systems of the paper's experimental methodology.
var (
	// P7OneChip is the AIX instance on one 8-core POWER7 chip.
	P7OneChip = System{Name: "POWER7-8core", Arch: arch.POWER7, Chips: 1}
	// P7TwoChip is the AIX instance on two 8-core POWER7 chips.
	P7TwoChip = System{Name: "POWER7-16core", Arch: arch.POWER7, Chips: 2}
	// I7OneChip is the Linux instance on the quad-core Core i7.
	I7OneChip = System{Name: "Corei7-4core", Arch: arch.Nehalem, Chips: 1}
)

// Cell is the result of one benchmark run at one SMT level.
type Cell struct {
	Bench string
	SMT   int
	// Wall is the run's wall-clock cycles for the workload's fixed amount
	// of work.
	Wall int64
	// Snap holds the run's performance counters.
	Snap counters.Snapshot
	// Metric is the SMT-selection metric evaluated on this run.
	Metric smtsm.Breakdown
	// Err records a failed run (cycle-limit).
	Err error
}

// DefaultSeed is the workload seed used throughout the reproduction.
const DefaultSeed = 42

// MaxRunCycles bounds a single benchmark run.
const MaxRunCycles = 400_000_000

// Matrix runs and caches benchmark × SMT-level cells for one system.
//
// Every cell is computed on a fresh, single-goroutine machine whose only
// randomness flows through xrand streams seeded from (Seed, benchmark name,
// thread index) — never from the wall clock, goroutine identity, or map
// iteration order. Distinct cells therefore compute bit-identical results
// no matter how many goroutines fill the matrix, in what order they run,
// or what GOMAXPROCS is; see DESIGN.md §"Determinism".
type Matrix struct {
	Sys  System
	Seed uint64

	// CellBudget bounds each on-demand simulation with a per-cell deadline
	// derived from the caller's context; 0 means no per-cell bound. Set it
	// before sharing the matrix across goroutines. With a budget installed,
	// rendering after a canceled or timed-out sweep reports the missing
	// cells as failed instead of silently re-simulating them without bound,
	// so partial figures really are partial.
	CellBudget time.Duration

	mu    sync.Mutex
	cells map[string]*cellEntry
	// archDesc is a cached description for metric evaluation.
	archDesc *arch.Desc
	// pool recycles simulated machines across cells. A pooled machine is
	// scrubbed to freshly-constructed state by Get, so cell results stay
	// bit-identical to the fresh-machine-per-cell behavior.
	pool *cpu.Pool
}

// cellEntry is the singleflight slot for one (bench, smt) cell: the first
// goroutine to lock it runs the simulation, later arrivals wait on the lock
// and read the stored result instead of duplicating minutes of work.
type cellEntry struct {
	mu sync.Mutex
	c  *Cell
}

// NewMatrix builds an empty run matrix for a system.
func NewMatrix(sys System, seed uint64) *Matrix {
	return &Matrix{
		Sys:      sys,
		Seed:     seed,
		cells:    map[string]*cellEntry{},
		archDesc: sys.Arch(),
		pool:     cpu.NewPool(0),
	}
}

// Arch returns the system's architecture description.
func (m *Matrix) Arch() *arch.Desc { return m.archDesc }

func cellKey(bench string, smt int) string { return fmt.Sprintf("%s@%d", bench, smt) }

// Cell returns the cached result for (bench, smt), running the simulation on
// first use. It is safe for concurrent use; distinct cells may compute in
// parallel, and concurrent requests for the same cell share one computation.
//
// A cell interrupted by ctx (or by the matrix's CellBudget deadline)
// reports the context error (alongside whatever counters the partial run
// accumulated) but is NOT cached, so a later call with a live context
// recomputes it. Completed cells — including deterministic failures such
// as the cycle limit — are cached permanently.
func (m *Matrix) Cell(ctx context.Context, bench string, smt int) *Cell {
	if m.CellBudget > 0 {
		cctx, cancel := context.WithTimeout(ctx, m.CellBudget)
		defer cancel()
		ctx = cctx
	}
	key := cellKey(bench, smt)
	m.mu.Lock()
	e, ok := m.cells[key]
	if !ok {
		e = &cellEntry{}
		m.cells[key] = e
	}
	m.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.c != nil {
		return e.c
	}
	if err := ctx.Err(); err != nil {
		// Canceled before we started: report without running or caching.
		return &Cell{Bench: bench, SMT: smt, Err: err}
	}
	c := m.run(ctx, bench, smt)
	if errors.Is(c.Err, context.Canceled) || errors.Is(c.Err, context.DeadlineExceeded) {
		// Interrupted (mid-run, or while the cell waited for its machine):
		// hand back the partial result uncached.
		return c
	}
	e.c = c
	return c
}

// Cached returns the completed cells of the matrix in deterministic
// (bench, smt) key order — the partial results available after a canceled
// or timed-out sweep.
func (m *Matrix) Cached() []*Cell {
	m.mu.Lock()
	keys := make([]string, 0, len(m.cells))
	for k := range m.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]*cellEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, m.cells[k])
	}
	m.mu.Unlock()
	var out []*Cell
	for _, e := range entries {
		e.mu.Lock()
		if e.c != nil {
			out = append(out, e.c)
		}
		e.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].SMT < out[j].SMT
	})
	return out
}

// run executes one cell: a fresh-state machine (pooled, scrubbed by Get to
// cold caches and zeroed counters), the workload
// instantiated with one software thread per hardware thread (the paper's
// methodology), run to completion.
func (m *Matrix) run(ctx context.Context, bench string, smt int) *Cell {
	c := &Cell{Bench: bench, SMT: smt}
	spec, err := workload.Get(bench)
	if err != nil {
		c.Err = err
		return c
	}
	mach, err := m.pool.Get(m.Sys.Arch(), m.Sys.Chips)
	if err != nil {
		c.Err = err
		return c
	}
	defer m.pool.Put(mach)
	if err := mach.SetSMTLevel(smt); err != nil {
		c.Err = err
		return c
	}
	res, err := controller.Measure(ctx, mach, []controller.Part{{Spec: spec, Seed: m.Seed}}, MaxRunCycles)
	c.Wall, c.Snap, c.Metric, c.Err = res.WallCycles, res.Snapshot, res.Metric, err
	return c
}

// Speedup returns wall(smtLow)/wall(smtHigh) for a benchmark: >1 means the
// higher SMT level wins.
func (m *Matrix) Speedup(ctx context.Context, bench string, smtHigh, smtLow int) float64 {
	hi := m.Cell(ctx, bench, smtHigh)
	lo := m.Cell(ctx, bench, smtLow)
	if hi.Err != nil || lo.Err != nil || hi.Wall == 0 {
		return 0
	}
	return float64(lo.Wall) / float64(hi.Wall)
}

// Prefetch computes the given cells using up to workers goroutines
// (defaulting to GOMAXPROCS). It is a convenience wrapper around
// (*Runner).Sweep with no timeout or progress reporting; the error is
// ctx.Err() when the prefetch was cut short.
func (m *Matrix) Prefetch(ctx context.Context, benches []string, smts []int, workers int) error {
	r := Runner{Workers: workers}
	_, err := r.Sweep(ctx, m, benches, smts)
	return err
}

// Benchmark lists, per figure, transcribed from the paper's figure labels.
var (
	// P7Benchmarks is the single-chip POWER7 set (Figs. 2, 6, 8, 9).
	P7Benchmarks = []string{
		"Ammp", "Applu", "Apsi", "Equake", "Fma3d", "Gafort", "Mgrid", "Swim",
		"Wupwise", "Blackscholes", "BT", "CG_MPI", "Dedup", "EP", "EP_MPI",
		"Fluidanimate", "FT_MPI", "IS", "IS_MPI", "LU_MPI", "MG", "MG_MPI",
		"SSCA2", "Stream", "Streamcluster", "SPECjbb", "SPECjbb_contention",
		"Daytrader",
	}
	// Fig11Benchmarks is the Fig. 11 label set (no Daytrader).
	Fig11Benchmarks = []string{
		"Ammp", "Applu", "Apsi", "Equake", "Fma3d", "Gafort", "Mgrid", "Swim",
		"Wupwise", "Blackscholes", "BT", "CG_MPI", "Dedup", "EP", "EP_MPI",
		"Fluidanimate", "FT_MPI", "IS", "IS_MPI", "LU_MPI", "MG", "MG_MPI",
		"SSCA2", "Stream", "Streamcluster", "SPECjbb", "SPECjbb_contention",
	}
	// I7Benchmarks is the Fig. 10 Nehalem set.
	I7Benchmarks = []string{
		"blackscholes_pthreads", "Bodytrack", "bodytrack_pthreads", "BT", "CG",
		"Dedup", "EP", "Facesim", "Ferret", "Fluidanimate", "Freqmine", "FT",
		"LU", "Raytrace", "SP", "Streamcluster", "Swaptions", "UA", "Vips",
		"SSCA2", "x264",
	}
	// Fig12Benchmarks is the Fig. 12 Nehalem set (metric at SMT1).
	Fig12Benchmarks = []string{
		"Bodytrack", "bodytrack_pthreads", "BT", "Canneal", "CG", "Dedup",
		"EP", "Facesim", "Fluidanimate", "Freqmine", "FT", "LU", "Raytrace",
		"SP", "Streamcluster", "Swaptions", "UA",
	}
	// Fig13Benchmarks is the two-chip POWER7 SMT4/SMT1 set.
	Fig13Benchmarks = []string{
		"EP", "BT", "MG", "IS", "Dedup", "Fluidanimate", "Blackscholes",
		"SSCA2", "Streamcluster", "Stream", "SPECjbb_contention", "SPECjbb",
		"CG_MPI", "FT_MPI", "EP_MPI", "IS_MPI", "Ammp", "Applu", "Apsi",
		"Equake", "Fma3d", "Gafort", "Mgrid", "Swim", "Wupwise",
	}
	// Fig14Benchmarks is the two-chip POWER7 SMT4/SMT2 set.
	Fig14Benchmarks = []string{
		"EP", "BT", "MG", "IS", "Dedup", "Fluidanimate", "Blackscholes",
		"SSCA2", "Streamcluster", "Stream", "SPECjbb_contention", "CG_MPI",
		"EP_MPI", "MG_MPI", "Ammp", "Applu", "Apsi", "Equake", "Fma3d",
		"Gafort", "Mgrid", "Swim", "Wupwise",
	}
	// Fig15Benchmarks is the two-chip POWER7 SMT2/SMT1 set.
	Fig15Benchmarks = []string{
		"Blackscholes", "BT", "CG_MPI", "Dedup", "EP", "EP_MPI",
		"Fluidanimate", "FT_MPI", "IS", "IS_MPI", "LU_MPI", "MG", "MG_MPI",
		"SSCA2", "Stream", "Streamcluster", "Ammp", "Applu", "Apsi", "Equake",
		"Fma3d", "Gafort", "Mgrid", "Swim", "Wupwise", "SPECjbb_contention",
		"SPECjbb",
	}
	// Fig1Benchmarks are the three motivating examples of Fig. 1.
	Fig1Benchmarks = []string{"Equake", "MG", "EP"}
	// Fig7Benchmarks are the five instruction-mix examples of Fig. 7,
	// ordered by decreasing SMT4/SMT1 speedup as in the paper.
	Fig7Benchmarks = []string{"Blackscholes", "Fluidanimate", "Dedup", "SSCA2", "SPECjbb_contention"}
)
