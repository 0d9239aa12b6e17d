package workload

import (
	"fmt"

	"repro/internal/sched"
)

// The library models every benchmark in the paper's Table I (and the extra
// PARSEC/NAS programs that appear only in the Nehalem figures). Each model
// encodes the published characteristics of its benchmark — instruction mix,
// locality, synchronisation discipline, scalability — as Spec knobs; the
// comment on each entry states the characterisation it encodes. Absolute
// speedups are a property of the simulated machine, not of these specs; the
// specs only fix the *kind* of behaviour (diverse-mix scalable,
// bandwidth-bound, lock-contended, I/O-bound, ...) the paper attributes to
// each benchmark.
//
// Work sizes are scaled to simulator-friendly instruction counts; they play
// the role of the paper's problem classes (C/D, native, reference).

var registry = buildRegistry()

// Get returns the named workload spec, or an error listing valid names.
func Get(name string) (*Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (see workload.Names())", name)
}

// Names returns all benchmark names in library order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// All returns every spec in library order.
func All() []*Spec {
	out := make([]*Spec, len(registry))
	copy(out, registry)
	return out
}

func buildRegistry() []*Spec {
	const (
		workDefault   = 3_200_000 // compute-bound benchmarks
		workMemory    = 1_800_000 // memory/bandwidth-bound (slow cycles)
		workContended = 1_200_000 // heavily serialised (slow cycles)
	)

	specs := []*Spec{
		// ------------------------------------------------------------------
		// NAS Parallel Benchmarks.
		// ------------------------------------------------------------------
		{
			// Embarrassingly parallel pseudo-random number generation:
			// diverse mix, tiny working set, dense FP dependency chains
			// (low single-thread ILP), no synchronisation — the paper's
			// canonical SMT winner (Fig. 1).
			Name: "EP", Suite: "NAS", Problem: "D (OpenMP)",
			Desc:   "Embarrassingly Parallel: computes pseudo-random numbers",
			Mix:    Mix{Load: 0.15, Store: 0.12, Branch: 0.14, Int: 0.25, IntMul: 0.02, FPVec: 0.31, FPDiv: 0.01},
			Chains: 2, ChainFrac: 0.88, CrossDep: 0.15,
			WorkingSetKB: 16, BranchEntropy: 0.05,
			TotalWork: workDefault, IterLen: 2000,
			BarrierKind: sched.SpinLock,
		},
		{
			// The MPI flavour adds light periodic synchronisation.
			Name: "EP_MPI", Suite: "NAS", Problem: "C (MPI)",
			Desc:   "Embarrassingly Parallel, MPI version",
			Mix:    Mix{Load: 0.16, Store: 0.12, Branch: 0.14, Int: 0.24, IntMul: 0.02, FPVec: 0.31, FPDiv: 0.01},
			Chains: 2, ChainFrac: 0.88, CrossDep: 0.15,
			WorkingSetKB: 16, BranchEntropy: 0.05,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 24, BarrierKind: sched.SpinLock,
		},
		{
			// Integer bucket sort: integer-heavy mix, large randomly
			// scattered stores, bandwidth pressure.
			Name: "IS", Suite: "NAS", Problem: "D",
			Desc:   "Integer Sort: bucket sort for integers",
			Mix:    Mix{Load: 0.28, Store: 0.20, Branch: 0.12, Int: 0.36, IntMul: 0.02, FPVec: 0.02},
			Chains: 8, ChainFrac: 0.60, CrossDep: 0.10,
			WorkingSetKB: 8 << 10, BranchEntropy: 0.40,
			ColdFrac:  0.08,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 16, BarrierKind: sched.SpinLock,
		},
		{
			Name: "IS_MPI", Suite: "NAS", Problem: "C (MPI)",
			Desc:   "Integer Sort, MPI version",
			Mix:    Mix{Load: 0.28, Store: 0.20, Branch: 0.13, Int: 0.35, IntMul: 0.02, FPVec: 0.02},
			Chains: 8, ChainFrac: 0.60, CrossDep: 0.10,
			WorkingSetKB: 8 << 10, BranchEntropy: 0.40,
			ColdFrac:  0.08,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 8, BarrierKind: sched.SpinLock,
		},
		{
			// Block-tridiagonal PDE solver: FP-dominated with dense
			// dependency chains over blocked, cache-resident tiles.
			Name: "BT", Suite: "NAS", Problem: "C",
			Desc:   "Block Tridiagonal: solves nonlinear PDEs using the BT method",
			Mix:    Mix{Load: 0.22, Store: 0.12, Branch: 0.08, Int: 0.12, FPVec: 0.44, FPDiv: 0.02},
			Chains: 7, ChainFrac: 0.85, CrossDep: 0.20,
			WorkingSetKB: 160, StrideBytes: 64, BranchEntropy: 0.10,
			ColdFrac:  0.05,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 12, BarrierKind: sched.SpinLock,
		},
		{
			// SSOR solver: like BT with tighter pipelined sweeps and more
			// frequent synchronisation.
			Name: "LU_MPI", Suite: "NAS", Problem: "C (MPI)",
			Desc:   "Lower-Upper: solves nonlinear PDEs using the SSOR method",
			Mix:    Mix{Load: 0.23, Store: 0.12, Branch: 0.09, Int: 0.13, FPVec: 0.41, FPDiv: 0.02},
			Chains: 7, ChainFrac: 0.85, CrossDep: 0.20,
			WorkingSetKB: 128, StrideBytes: 64, BranchEntropy: 0.12,
			ColdFrac:  0.05,
			TotalWork: workDefault, IterLen: 1500,
			BarrierEvery: 4, BarrierKind: sched.SpinLock,
		},
		{
			// Conjugate gradient: sparse matrix-vector products — loads
			// with irregular (random) access over a multi-megabyte matrix.
			Name: "CG_MPI", Suite: "NAS", Problem: "C (MPI)",
			Desc:   "Conjugate Gradient: estimates eigenvalues of sparse matrices",
			Mix:    Mix{Load: 0.32, Store: 0.06, Branch: 0.10, Int: 0.22, FPVec: 0.30},
			Chains: 4, ChainFrac: 0.70, CrossDep: 0.10,
			WorkingSetKB: 4 << 10, BranchEntropy: 0.20,
			ColdFrac:  0.17,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			// FFT: strided butterfly accesses over a large array plus
			// all-to-all exchange phases.
			Name: "FT_MPI", Suite: "NAS", Problem: "C (MPI)",
			Desc:   "Fast Fourier Transform",
			Mix:    Mix{Load: 0.24, Store: 0.14, Branch: 0.06, Int: 0.16, FPVec: 0.38, FPDiv: 0.02},
			Chains: 6, ChainFrac: 0.70, CrossDep: 0.10,
			WorkingSetKB: 1 << 10, StrideBytes: 128, ColdFrac: 0.06, BranchEntropy: 0.10,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 12, BarrierKind: sched.SpinLock,
		},
		{
			// Multigrid Poisson solver: streaming FP over grids larger
			// than L2 — memory-system-bound; the paper's SMT-indifferent
			// example (Fig. 1).
			Name: "MG", Suite: "NAS", Problem: "D",
			Desc:   "MultiGrid: approximate solution to a 3-D discrete Poisson equation",
			Mix:    Mix{Load: 0.28, Store: 0.12, Branch: 0.08, Int: 0.12, FPVec: 0.40},
			Chains: 10, ChainFrac: 0.55, CrossDep: 0.05,
			WorkingSetKB: 2 << 10, StrideBytes: 8, ColdFrac: 0.55, BranchEntropy: 0.08,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 12, BarrierKind: sched.SpinLock,
		},
		{
			Name: "MG_MPI", Suite: "NAS", Problem: "C (MPI)",
			Desc:   "MultiGrid, MPI version",
			Mix:    Mix{Load: 0.28, Store: 0.13, Branch: 0.08, Int: 0.13, FPVec: 0.38},
			Chains: 10, ChainFrac: 0.55, CrossDep: 0.05,
			WorkingSetKB: 2 << 10, StrideBytes: 8, ColdFrac: 0.55, BranchEntropy: 0.08,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 8, BarrierKind: sched.SpinLock,
		},
		{
			// Scalar pentadiagonal solver (Nehalem experiments only).
			Name: "SP", Suite: "NAS", Problem: "C",
			Desc:   "Scalar Pentadiagonal: solves nonlinear PDEs",
			Mix:    Mix{Load: 0.23, Store: 0.13, Branch: 0.08, Int: 0.13, FPVec: 0.41, FPDiv: 0.02},
			Chains: 7, ChainFrac: 0.85, CrossDep: 0.20,
			WorkingSetKB: 192, StrideBytes: 64, BranchEntropy: 0.10,
			ColdFrac:  0.05,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			// Unstructured adaptive mesh: irregular access with moderate
			// FP (Nehalem experiments only).
			Name: "UA", Suite: "NAS", Problem: "C",
			Desc:   "Unstructured Adaptive mesh computation",
			Mix:    Mix{Load: 0.26, Store: 0.12, Branch: 0.12, Int: 0.20, FPVec: 0.30},
			Chains: 4, ChainFrac: 0.75, CrossDep: 0.10,
			WorkingSetKB: 1536, BranchEntropy: 0.30,
			ColdFrac:  0.08,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			// OpenMP flavours used on the Linux/Core i7 system.
			Name: "CG", Suite: "NAS", Problem: "C",
			Desc:   "Conjugate Gradient, OpenMP version",
			Mix:    Mix{Load: 0.32, Store: 0.06, Branch: 0.10, Int: 0.22, FPVec: 0.30},
			Chains: 4, ChainFrac: 0.70, CrossDep: 0.10,
			WorkingSetKB: 4 << 10, BranchEntropy: 0.20,
			ColdFrac:  0.17,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			Name: "FT", Suite: "NAS", Problem: "C",
			Desc:   "Fast Fourier Transform, OpenMP version",
			Mix:    Mix{Load: 0.24, Store: 0.14, Branch: 0.06, Int: 0.16, FPVec: 0.38, FPDiv: 0.02},
			Chains: 6, ChainFrac: 0.70, CrossDep: 0.10,
			WorkingSetKB: 1 << 10, StrideBytes: 128, ColdFrac: 0.06, BranchEntropy: 0.10,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 12, BarrierKind: sched.SpinLock,
		},
		{
			Name: "LU", Suite: "NAS", Problem: "C",
			Desc:   "Lower-Upper SSOR solver, OpenMP version",
			Mix:    Mix{Load: 0.23, Store: 0.12, Branch: 0.09, Int: 0.13, FPVec: 0.41, FPDiv: 0.02},
			Chains: 7, ChainFrac: 0.85, CrossDep: 0.20,
			WorkingSetKB: 128, StrideBytes: 64, BranchEntropy: 0.12,
			ColdFrac:  0.05,
			TotalWork: workDefault, IterLen: 1500,
			BarrierEvery: 4, BarrierKind: sched.SpinLock,
		},

		// ------------------------------------------------------------------
		// PARSEC.
		// ------------------------------------------------------------------
		{
			// Option pricing: a diverse FP/integer mix over a small,
			// streaming options array; near-perfect scalability. The
			// paper's Fig. 7 puts it at the diverse end (1.82× at SMT4).
			Name: "Blackscholes", Suite: "PARSEC", Problem: "Native",
			Desc:   "Computes option prices",
			Mix:    Mix{Load: 0.18, Store: 0.08, Branch: 0.12, Int: 0.18, FPVec: 0.40, FPDiv: 0.04},
			Chains: 3, ChainFrac: 0.90, CrossDep: 0.15,
			WorkingSetKB: 8, StrideBytes: 64, BranchEntropy: 0.05,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 32, BarrierKind: sched.BlockingLock,
		},
		{
			// pthreads flavour (Nehalem figures): no OpenMP barriers.
			Name: "blackscholes_pthreads", Suite: "PARSEC", Problem: "Native",
			Desc:   "Computes option prices (pthreads)",
			Mix:    Mix{Load: 0.18, Store: 0.08, Branch: 0.12, Int: 0.18, FPVec: 0.40, FPDiv: 0.04},
			Chains: 3, ChainFrac: 0.90, CrossDep: 0.15,
			WorkingSetKB: 8, StrideBytes: 64, BranchEntropy: 0.05,
			TotalWork: workDefault, IterLen: 2000,
		},
		{
			// Body tracking: medium working set, branchy vision kernels,
			// frame barriers.
			Name: "Bodytrack", Suite: "PARSEC", Problem: "Native",
			Desc:   "Simulates motion tracking of a person",
			Mix:    Mix{Load: 0.24, Store: 0.10, Branch: 0.16, Int: 0.26, IntMul: 0.02, FPVec: 0.22},
			Chains: 4, ChainFrac: 0.80, CrossDep: 0.10,
			WorkingSetKB: 64, BranchEntropy: 0.35,
			ColdFrac:  0.04,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 8, BarrierKind: sched.BlockingLock,
		},
		{
			Name: "bodytrack_pthreads", Suite: "PARSEC", Problem: "Native",
			Desc:   "Simulates motion tracking of a person (pthreads)",
			Mix:    Mix{Load: 0.24, Store: 0.10, Branch: 0.16, Int: 0.26, IntMul: 0.02, FPVec: 0.22},
			Chains: 4, ChainFrac: 0.80, CrossDep: 0.10,
			WorkingSetKB: 64, BranchEntropy: 0.35,
			ColdFrac:  0.04,
			TotalWork: workDefault, IterLen: 2000,
			LockEvery: 8, CritLen: 60, LockKind: sched.BlockingLock,
		},
		{
			// Cache-aware annealing: pointer-chasing over a huge shared
			// netlist — latency-bound random access.
			Name: "Canneal", Suite: "PARSEC", Problem: "Native",
			Desc:   "Cache-aware simulated annealing",
			Mix:    Mix{Load: 0.30, Store: 0.10, Branch: 0.14, Int: 0.36, FPVec: 0.10},
			Chains: 2, ChainFrac: 0.85, CrossDep: 0.10,
			WorkingSetKB: 64, SharedSetKB: 32 << 10, SharedFrac: 0.80,
			BranchEntropy: 0.40,
			ColdFrac:      0.20,
			TotalWork:     workMemory, IterLen: 2000,
		},
		{
			// Compression/deduplication pipeline: integer- and
			// branch-heavy, queue locks between stages, heavy I/O —
			// Table I marks it "Heavy I/O".
			Name: "Dedup", Suite: "PARSEC", Problem: "Native",
			Desc:   "Data compression and deduplication. Heavy I/O",
			Mix:    Mix{Load: 0.24, Store: 0.14, Branch: 0.20, Int: 0.36, IntMul: 0.04, FPVec: 0.02},
			Chains: 4, ChainFrac: 0.80, CrossDep: 0.10,
			WorkingSetKB: 256, BranchEntropy: 0.50,
			ColdFrac:  0.08,
			TotalWork: workContended, IterLen: 1500,
			LockEvery: 1, CritLen: 200, LockKind: sched.BlockingLock,
			SleepEvery: 4, SleepCycles: 9_000,
		},
		{
			// Face simulation: large FP kernels over a medium mesh.
			Name: "Facesim", Suite: "PARSEC", Problem: "Native",
			Desc:   "Simulates human facial motion",
			Mix:    Mix{Load: 0.24, Store: 0.12, Branch: 0.08, Int: 0.14, FPVec: 0.40, FPDiv: 0.02},
			Chains: 6, ChainFrac: 0.85, CrossDep: 0.15,
			WorkingSetKB: 256, StrideBytes: 64, BranchEntropy: 0.12,
			ColdFrac:  0.06,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 8, BarrierKind: sched.BlockingLock,
		},
		{
			// Content-based similarity search pipeline: mixed int/FP with
			// queue hand-offs.
			Name: "Ferret", Suite: "PARSEC", Problem: "Native",
			Desc:   "Content similarity search",
			Mix:    Mix{Load: 0.26, Store: 0.10, Branch: 0.14, Int: 0.28, FPVec: 0.22},
			Chains: 4, ChainFrac: 0.80, CrossDep: 0.10,
			WorkingSetKB: 512, BranchEntropy: 0.30,
			ColdFrac:  0.06,
			TotalWork: workDefault, IterLen: 2000,
			LockEvery: 6, CritLen: 80, LockKind: sched.BlockingLock,
		},
		{
			// Fluid dynamics with fine-grained cell locks and per-frame
			// barriers; Fig. 7 shows it mildly SMT-positive (1.35×).
			Name: "Fluidanimate", Suite: "PARSEC", Problem: "Native",
			Desc:   "Fluid dynamics simulation",
			Mix:    Mix{Load: 0.22, Store: 0.10, Branch: 0.14, Int: 0.14, FPVec: 0.38, FPDiv: 0.02},
			Chains: 5, ChainFrac: 0.82, CrossDep: 0.15,
			WorkingSetKB: 96, SharedSetKB: 4 << 10, SharedFrac: 0.10,
			BranchEntropy: 0.20,
			ColdFrac:      0.05,
			TotalWork:     workDefault, IterLen: 2000,
			LockEvery: 6, CritLen: 40, LockKind: sched.SpinLock,
			BarrierEvery: 8, BarrierKind: sched.SpinLock,
		},
		{
			// Frequent itemset mining: integer/branch-heavy tree walks.
			Name: "Freqmine", Suite: "PARSEC", Problem: "Native",
			Desc:   "Frequent itemset mining",
			Mix:    Mix{Load: 0.28, Store: 0.10, Branch: 0.18, Int: 0.40, FPVec: 0.04},
			Chains: 3, ChainFrac: 0.85, CrossDep: 0.10,
			WorkingSetKB: 1 << 10, BranchEntropy: 0.45,
			ColdFrac:  0.06,
			TotalWork: workDefault, IterLen: 2000,
		},
		{
			// Raytracing: branchy traversal of a shared acceleration
			// structure with FP shading.
			Name: "Raytrace", Suite: "PARSEC", Problem: "Native",
			Desc:   "Real-time raytracing",
			Mix:    Mix{Load: 0.28, Store: 0.06, Branch: 0.16, Int: 0.20, FPVec: 0.30},
			Chains: 3, ChainFrac: 0.85, CrossDep: 0.10,
			WorkingSetKB: 128, SharedSetKB: 2 << 10, SharedFrac: 0.50,
			BranchEntropy: 0.30,
			ColdFrac:      0.05,
			TotalWork:     workDefault, IterLen: 2000,
		},
		{
			// Online clustering: an unusually load-heavy mix (the paper
			// reports ~40% loads) streaming over a shared point set that
			// fits POWER7's 32 MB L3 but not Nehalem's 8 MB — the
			// mechanism behind its Fig. 10 outlier behaviour.
			Name: "Streamcluster", Suite: "PARSEC", Problem: "Native",
			Desc:   "Online clustering of a data stream",
			Mix:    Mix{Load: 0.40, Store: 0.06, Branch: 0.12, Int: 0.18, FPVec: 0.24},
			Chains: 12, ChainFrac: 0.50, CrossDep: 0.05,
			WorkingSetKB: 64, SharedSetKB: 20 << 10, SharedFrac: 0.80,
			StrideBytes: 8, BranchEntropy: 0.10,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			// Swaption pricing by Monte Carlo: compute-bound FP with tiny
			// state, embarrassingly parallel.
			Name: "Swaptions", Suite: "PARSEC", Problem: "Native",
			Desc:   "Pricing of a portfolio of swaptions",
			Mix:    Mix{Load: 0.18, Store: 0.08, Branch: 0.12, Int: 0.22, FPVec: 0.38, FPDiv: 0.02},
			Chains: 3, ChainFrac: 0.90, CrossDep: 0.15,
			WorkingSetKB: 24, BranchEntropy: 0.10,
			TotalWork: workDefault, IterLen: 2000,
		},
		{
			// Image processing pipeline: streaming kernels, balanced mix.
			Name: "Vips", Suite: "PARSEC", Problem: "Native",
			Desc:   "Image processing",
			Mix:    Mix{Load: 0.24, Store: 0.14, Branch: 0.10, Int: 0.26, FPVec: 0.26},
			Chains: 6, ChainFrac: 0.70, CrossDep: 0.10,
			WorkingSetKB: 1 << 10, StrideBytes: 64, BranchEntropy: 0.20,
			ColdFrac:  0.10,
			TotalWork: workDefault, IterLen: 2000,
		},
		{
			// Video encoding: integer/SIMD with data-dependent branches.
			Name: "x264", Suite: "PARSEC", Problem: "Native",
			Desc:   "H.264 video encoding",
			Mix:    Mix{Load: 0.24, Store: 0.12, Branch: 0.14, Int: 0.30, IntMul: 0.04, FPVec: 0.16},
			Chains: 5, ChainFrac: 0.75, CrossDep: 0.10,
			WorkingSetKB: 384, BranchEntropy: 0.35,
			ColdFrac:  0.05,
			TotalWork: workDefault, IterLen: 2000,
			LockEvery: 10, CritLen: 60, LockKind: sched.BlockingLock,
		},

		// ------------------------------------------------------------------
		// SPEC OMP2001.
		// ------------------------------------------------------------------
		{
			// Molecular dynamics: neighbour-list gathers (irregular loads)
			// with FP force computation.
			Name: "Ammp", Suite: "SPEC OMP2001", Problem: "Reference",
			Desc:   "Molecular dynamics",
			Mix:    Mix{Load: 0.24, Store: 0.10, Branch: 0.12, Int: 0.16, FPVec: 0.36, FPDiv: 0.02},
			Chains: 4, ChainFrac: 0.85, CrossDep: 0.15,
			WorkingSetKB: 200, BranchEntropy: 0.25,
			ColdFrac:  0.08,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			// CFD solver: FP-dominated streaming sweeps over a grid
			// bigger than L2.
			Name: "Applu", Suite: "SPEC OMP2001", Problem: "Reference",
			Desc:   "Parabolic/elliptic fluid dynamics solver",
			Mix:    Mix{Load: 0.24, Store: 0.12, Branch: 0.07, Int: 0.12, FPVec: 0.43, FPDiv: 0.02},
			Chains: 8, ChainFrac: 0.60, CrossDep: 0.05,
			WorkingSetKB: 1 << 10, StrideBytes: 8, ColdFrac: 0.80, BranchEntropy: 0.08,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 8, BarrierKind: sched.SpinLock,
		},
		{
			// Lake weather model: mixed FP with moderate locality.
			Name: "Apsi", Suite: "SPEC OMP2001", Problem: "Reference",
			Desc:   "Lake weather modeling",
			Mix:    Mix{Load: 0.24, Store: 0.12, Branch: 0.10, Int: 0.16, FPVec: 0.36, FPDiv: 0.02},
			Chains: 6, ChainFrac: 0.80, CrossDep: 0.10,
			WorkingSetKB: 700, StrideBytes: 64, BranchEntropy: 0.15,
			ColdFrac:  0.06,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			// Earthquake simulation: sparse-matrix FP with poor locality —
			// FP-homogeneous AND memory-intensive; the paper's canonical
			// SMT loser (Fig. 1).
			Name: "Equake", Suite: "SPEC OMP2001", Problem: "Reference",
			Desc:   "Earthquake simulation",
			Mix:    Mix{Load: 0.27, Store: 0.09, Branch: 0.08, Int: 0.10, FPVec: 0.42, FPDiv: 0.04},
			Chains: 8, ChainFrac: 0.60, CrossDep: 0.10,
			WorkingSetKB: 6 << 10, StrideBytes: 8, BranchEntropy: 0.20,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 2, BarrierKind: sched.SpinLock,
		},
		{
			// Finite-element crash simulation: FP with indirection.
			Name: "Fma3d", Suite: "SPEC OMP2001", Problem: "Reference",
			Desc:   "Finite-element method PDE solver",
			Mix:    Mix{Load: 0.22, Store: 0.12, Branch: 0.12, Int: 0.16, FPVec: 0.36, FPDiv: 0.02},
			Chains: 5, ChainFrac: 0.82, CrossDep: 0.15,
			WorkingSetKB: 300, BranchEntropy: 0.20,
			ColdFrac:  0.06,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			// Genetic algorithm: integer/branch-rich with random access
			// and a guarded shared population.
			Name: "Gafort", Suite: "SPEC OMP2001", Problem: "Reference",
			Desc:   "Genetic algorithm",
			Mix:    Mix{Load: 0.22, Store: 0.14, Branch: 0.16, Int: 0.26, FPVec: 0.22},
			Chains: 4, ChainFrac: 0.80, CrossDep: 0.10,
			WorkingSetKB: 500, BranchEntropy: 0.40,
			ColdFrac:  0.07,
			TotalWork: workDefault, IterLen: 2000,
			LockEvery: 12, CritLen: 60, LockKind: sched.SpinLock,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			// Multigrid solver on a large grid: streaming, bandwidth-
			// hungry.
			Name: "Mgrid", Suite: "SPEC OMP2001", Problem: "Reference",
			Desc:   "Multigrid method differential equation solver",
			Mix:    Mix{Load: 0.28, Store: 0.13, Branch: 0.07, Int: 0.12, FPVec: 0.40},
			Chains: 10, ChainFrac: 0.55, CrossDep: 0.05,
			WorkingSetKB: 4 << 10, StrideBytes: 8, BranchEntropy: 0.06,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 10, BarrierKind: sched.SpinLock,
		},
		{
			// Shallow-water model: long unit-stride FP streams over grids
			// far beyond L3 — the classic bandwidth-bound SPEC OMP code.
			Name: "Swim", Suite: "SPEC OMP2001", Problem: "Reference",
			Desc:   "Shallow water modeling",
			Mix:    Mix{Load: 0.28, Store: 0.16, Branch: 0.08, Int: 0.10, FPVec: 0.36, FPDiv: 0.02},
			Chains: 12, ChainFrac: 0.50, CrossDep: 0.05,
			WorkingSetKB: 12 << 10, StrideBytes: 8, BranchEntropy: 0.05,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 8, BarrierKind: sched.SpinLock,
		},
		{
			// Quantum chromodynamics: dense FP dependency chains over a
			// cache-resident lattice.
			Name: "Wupwise", Suite: "SPEC OMP2001", Problem: "Reference",
			Desc:   "Quantum chromodynamics",
			Mix:    Mix{Load: 0.22, Store: 0.10, Branch: 0.06, Int: 0.14, FPVec: 0.46, FPDiv: 0.02},
			Chains: 5, ChainFrac: 0.90, CrossDep: 0.20,
			WorkingSetKB: 250, StrideBytes: 64, BranchEntropy: 0.06,
			ColdFrac:  0.04,
			TotalWork: workDefault, IterLen: 2000,
			BarrierEvery: 12, BarrierKind: sched.SpinLock,
		},

		// ------------------------------------------------------------------
		// Kernels and commercial benchmarks.
		// ------------------------------------------------------------------
		{
			// Graph analysis (Table I: "Lock heavy"): integer-dominated,
			// irregular access to a large shared multigraph, spin locks
			// on vertices.
			Name: "SSCA2", Suite: "Kernel", Problem: "SCALE=17",
			Desc:   "Graph analysis benchmark. Lock heavy",
			Mix:    Mix{Load: 0.30, Store: 0.06, Branch: 0.18, Int: 0.42, IntMul: 0.04},
			Chains: 3, ChainFrac: 0.80, CrossDep: 0.10,
			WorkingSetKB: 32, SharedSetKB: 16 << 10, SharedFrac: 0.70,
			BranchEntropy: 0.55,
			ColdFrac:      0.11,
			TotalWork:     workContended, IterLen: 1000,
			LockEvery: 1, CritLen: 120, LockKind: sched.SpinLock,
		},
		{
			// Pure memory-bandwidth streaming (McCalpin): long unit-stride
			// load/store runs with almost no reuse and high MLP.
			Name: "Stream", Suite: "Kernel", Problem: "4578 MB x 1000 iter",
			Desc:   "Streaming memory bandwidth (copy/scale/add/triad)",
			Mix:    Mix{Load: 0.35, Store: 0.25, Branch: 0.08, Int: 0.12, FPVec: 0.20},
			Chains: 14, ChainFrac: 0.45, CrossDep: 0.05,
			WorkingSetKB: 48 << 10, StrideBytes: 8, BranchEntropy: 0.04,
			TotalWork: workMemory, IterLen: 2000,
			BarrierEvery: 16, BarrierKind: sched.SpinLock,
		},
		{
			// Server-side Java (one warehouse per thread): diverse mix,
			// medium object churn, occasional shared structures, blocking
			// synchronisation.
			Name: "SPECjbb", Suite: "SPECjbb2005", Problem: "warehouses = hw threads",
			Desc:   "Server-side Java, 3-tier system emulation",
			Mix:    Mix{Load: 0.24, Store: 0.12, Branch: 0.16, Int: 0.34, IntMul: 0.02, FPVec: 0.12},
			Chains: 3, ChainFrac: 0.82, CrossDep: 0.10,
			WorkingSetKB: 96, SharedSetKB: 8 << 10, SharedFrac: 0.10,
			BranchEntropy: 0.35,
			ColdFrac:      0.06,
			TotalWork:     workDefault, IterLen: 2000,
			LockEvery: 16, CritLen: 80, LockKind: sched.BlockingLock,
		},
		{
			// The paper's custom single-warehouse variant: every worker
			// hammers one warehouse behind one lock — heavy spin
			// contention and the worst SMT4 slowdown in Fig. 7 (0.25×).
			Name: "SPECjbb_contention", Suite: "Custom", Problem: "warehouses = 1",
			Desc:   "SPECjbb2005 with a single shared warehouse. Heavy lock contention",
			Mix:    Mix{Load: 0.22, Store: 0.12, Branch: 0.16, Int: 0.38, IntMul: 0.02, FPVec: 0.10},
			Chains: 4, ChainFrac: 0.80, CrossDep: 0.10,
			WorkingSetKB: 64, SharedSetKB: 2 << 10, SharedFrac: 0.40,
			BranchEntropy: 0.35,
			ColdFrac:      0.06,
			TotalWork:     workContended, IterLen: 2400,
			LockEvery: 1, CritLen: 420, LockKind: sched.SpinLock,
		},
		{
			// WebSphere trading front-end driven by 500 clients: request
			// processing interleaved with network I/O waits and database
			// round-trips (Table I: "Heavy network I/O").
			Name: "Daytrader", Suite: "Commercial", Problem: "500 clients",
			Desc:   "WebSphere online stock-trading emulation. Heavy network I/O",
			Mix:    Mix{Load: 0.24, Store: 0.12, Branch: 0.22, Int: 0.34, IntMul: 0.02, FPVec: 0.06},
			Chains: 4, ChainFrac: 0.80, CrossDep: 0.10,
			WorkingSetKB: 96, BranchEntropy: 0.50,
			ColdFrac:  0.06,
			TotalWork: workContended, IterLen: 1500,
			LockEvery: 1, CritLen: 220, LockKind: sched.BlockingLock,
			SleepEvery: 2, SleepCycles: 7_000,
		},
	}

	for _, s := range specs {
		if err := s.Validate(); err != nil {
			panic(err)
		}
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			panic("workload: duplicate benchmark name " + s.Name)
		}
		names[s.Name] = true
	}
	return specs
}
