// Package workload defines synthetic multithreaded workload models standing
// in for the paper's benchmark suite (its Table I). A Spec captures the
// characteristics the paper's analysis identifies as deciding SMT
// preference — instruction mix, dependency-chain density, working-set size
// and access pattern, branch predictability, lock behaviour, barrier and
// serial-phase structure, and I/O sleeps — and Instantiate compiles it into
// per-thread instruction sources for the CPU simulator.
//
// A workload is a fixed amount of useful work split evenly over its software
// threads, so run time is directly comparable across SMT levels exactly as
// the paper's benchmark timings are: speedup(SMT4/SMT1) =
// wall(SMT1)/wall(SMT4) for the same total work.
package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sched"
)

// Mix is an instruction-class mixture. Weights need not sum to one;
// Instantiate normalises them.
type Mix struct {
	Load, Store, Branch, Int, IntMul, FPVec, FPDiv float64
}

// weights returns the mixture as an indexed array.
func (m Mix) weights() [isa.NumClasses]float64 {
	var w [isa.NumClasses]float64
	w[isa.Load] = m.Load
	w[isa.Store] = m.Store
	w[isa.Branch] = m.Branch
	w[isa.Int] = m.Int
	w[isa.IntMul] = m.IntMul
	w[isa.FPVec] = m.FPVec
	w[isa.FPDiv] = m.FPDiv
	return w
}

// Normalized returns the mixture scaled to sum to 1.
func (m Mix) Normalized() Mix {
	s := m.Load + m.Store + m.Branch + m.Int + m.IntMul + m.FPVec + m.FPDiv
	if s <= 0 {
		return m
	}
	return Mix{m.Load / s, m.Store / s, m.Branch / s, m.Int / s, m.IntMul / s, m.FPVec / s, m.FPDiv / s}
}

// Spec is a complete workload model.
type Spec struct {
	// Name is the benchmark label used in the paper's figures; Suite,
	// Problem and Desc reproduce the Table I columns.
	Name, Suite, Problem, Desc string

	// Mix is the useful-work instruction mixture (spin loops injected by
	// contended locks add their own loads/ints/branches on top, shifting
	// the observed mix exactly as on real hardware).
	Mix Mix

	// Chains is the number of independent dependency chains each thread's
	// instruction stream interleaves — its intrinsic instruction-level
	// parallelism. A thread's chain-bound IPC is roughly Chains divided
	// by the mix's average producer latency, *independent of reorder-
	// window size*, which is what distinguishes genuinely low-ILP code
	// (big SMT opportunity) from code whose ILP a large window can mine.
	Chains int
	// ChainFrac is the fraction of instructions that sit on a chain; the
	// remainder are independent fillers whose parallelism does scale with
	// the window (streaming/MLP-style work).
	ChainFrac float64
	// CrossDep is the probability of an extra second operand linking to
	// another chain.
	CrossDep float64

	// WorkingSetKB is the per-thread private working set; SharedSetKB a
	// process-wide shared region; SharedFrac the fraction of memory
	// accesses that go to the shared region.
	WorkingSetKB int
	SharedSetKB  int
	SharedFrac   float64

	// StrideBytes selects sequential access with the given stride;
	// 0 selects random access within the working set.
	StrideBytes int

	// ColdFrac applies to random (StrideBytes == 0) access: the fraction
	// of accesses that touch the full working set; the remainder hit a
	// small hot region (up to 8 KiB) that caches well. Real irregular
	// codes have strong temporal locality on a hot subset; ColdFrac sets
	// the demand-miss rate directly (L1 MPKI ≈ memOpFrac × ColdFrac ×
	// 1000 for working sets beyond L1). Zero means uniform access.
	ColdFrac float64

	// BranchEntropy in [0,1] controls conditional-branch predictability:
	// 0 = highly biased (easily predicted), 1 = coin flips.
	BranchEntropy float64

	// TotalWork is the number of useful instructions across all threads.
	TotalWork int64
	// IterLen is the loop-iteration length in instructions; locks,
	// barriers, serial phases and sleeps are placed at iteration
	// granularity.
	IterLen int

	// LockEvery takes the global lock every this many iterations
	// (0 = never); CritLen is the critical-section length in
	// instructions; LockKind selects spinning or blocking waiters.
	LockEvery int
	CritLen   int
	LockKind  sched.LockKind

	// BarrierEvery synchronises all threads every this many iterations
	// (0 = never) with a barrier of BarrierKind.
	BarrierEvery int
	BarrierKind  sched.LockKind

	// SerialEvery inserts, every this many iterations, an Amdahl phase:
	// all threads synchronise and thread 0 alone runs SerialLen
	// instructions (0 = never).
	SerialEvery int
	SerialLen   int

	// SleepEvery makes each thread sleep SleepCycles cycles every this
	// many iterations (0 = never) — I/O, network waits, think time.
	SleepEvery  int
	SleepCycles int64
}

// Validate checks the spec for consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	w := s.Mix.weights()
	sum := 0.0
	for _, v := range w {
		if v < 0 {
			return fmt.Errorf("workload %s: negative mix weight", s.Name)
		}
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("workload %s: empty mix", s.Name)
	}
	if s.Chains <= 0 || s.Chains > 32 {
		return fmt.Errorf("workload %s: Chains %d out of [1,32]", s.Name, s.Chains)
	}
	if s.ChainFrac < 0 || s.ChainFrac > 1 {
		return fmt.Errorf("workload %s: ChainFrac %v out of [0,1]", s.Name, s.ChainFrac)
	}
	if s.CrossDep < 0 || s.CrossDep > 1 {
		return fmt.Errorf("workload %s: CrossDep %v out of [0,1]", s.Name, s.CrossDep)
	}
	if s.SharedFrac < 0 || s.SharedFrac > 1 {
		return fmt.Errorf("workload %s: SharedFrac %v out of [0,1]", s.Name, s.SharedFrac)
	}
	if s.BranchEntropy < 0 || s.BranchEntropy > 1 {
		return fmt.Errorf("workload %s: BranchEntropy %v out of [0,1]", s.Name, s.BranchEntropy)
	}
	if s.StrideBytes < 0 {
		return fmt.Errorf("workload %s: negative StrideBytes %d", s.Name, s.StrideBytes)
	}
	if s.ColdFrac < 0 || s.ColdFrac > 1 {
		return fmt.Errorf("workload %s: ColdFrac %v out of [0,1]", s.Name, s.ColdFrac)
	}
	if s.TotalWork <= 0 || s.IterLen <= 0 {
		return fmt.Errorf("workload %s: non-positive work", s.Name)
	}
	if s.LockEvery > 0 && (s.CritLen <= 0 || s.CritLen > s.IterLen) {
		return fmt.Errorf("workload %s: CritLen %d out of (0, IterLen]", s.Name, s.CritLen)
	}
	if s.WorkingSetKB <= 0 && s.SharedFrac < 1 && (s.Mix.Load > 0 || s.Mix.Store > 0) {
		return fmt.Errorf("workload %s: memory mix with no private working set", s.Name)
	}
	if s.SharedFrac > 0 && s.SharedSetKB <= 0 && (s.Mix.Load > 0 || s.Mix.Store > 0) {
		return fmt.Errorf("workload %s: SharedFrac with no shared set", s.Name)
	}
	if s.SerialEvery > 0 && s.SerialLen <= 0 {
		return fmt.Errorf("workload %s: SerialEvery with no SerialLen", s.Name)
	}
	if s.SleepEvery > 0 && s.SleepCycles <= 0 {
		return fmt.Errorf("workload %s: SleepEvery with no SleepCycles", s.Name)
	}
	return nil
}

// Instance is a workload instantiated for a particular thread count: the
// shared runtime plus one source per software thread.
type Instance struct {
	Spec    *Spec
	Runtime *sched.Runtime
	Threads []*sched.Thread

	lock    int
	barrier int
}

// Instantiate builds the workload for numThreads threads with the given
// seed. The same (spec, numThreads, seed) always produces identical
// instruction streams. It is Compile + Program.Instantiate in one step;
// callers that repeat a triple can hold the Program instead and amortize
// the compile.
func Instantiate(spec *Spec, numThreads int, seed uint64) (*Instance, error) {
	p, err := Compile(spec, numThreads, seed)
	if err != nil {
		return nil, err
	}
	inst := p.Instantiate()
	// Preserve the historical contract that the instance reports the
	// caller's own Spec value rather than the compiled copy.
	inst.Spec = spec
	return inst, nil
}

// Sources returns the per-thread instruction sources in thread order.
func (w *Instance) Sources() []isa.Source {
	srcs := make([]isa.Source, len(w.Threads))
	for i, t := range w.Threads {
		srcs[i] = t
	}
	return srcs
}

// UsefulInstrs returns the total useful (non-spin) instructions retired so
// far by all threads.
func (w *Instance) UsefulInstrs() int64 {
	var n int64
	for _, t := range w.Threads {
		n += t.UsefulInstrs
	}
	return n
}

// SpinInstrs returns the total spin-loop instructions emitted so far.
func (w *Instance) SpinInstrs() int64 {
	var n int64
	for _, t := range w.Threads {
		n += t.SpinInstrs
	}
	return n
}
