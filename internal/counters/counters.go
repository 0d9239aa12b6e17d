// Package counters defines the hardware-performance-counter surface of the
// simulator. It plays the role that PMU interfaces (AIX PMAPI, Linux perf)
// play in the paper: the SMT-selection metric is computed from a counter
// snapshot, never from simulator internals, so everything the metric uses is
// observable exactly the way it would be on real hardware:
//
//   - per-issue-port instruction counts (POWER7 port events / Nehalem
//     UOPS_EXECUTED.PORTx),
//   - per-class retired instruction counts (PM_INST_CMPL breakdowns),
//   - dispatch-held-for-resources cycles (PM_DISP_CLB_HELD_RES on POWER7,
//     RAT_STALLS:rob_read_port on Nehalem),
//   - cache accesses satisfied per level, branch predictor outcomes,
//   - wall cycles and per-software-thread busy cycles (getrusage-style CPU
//     time, for the scalability factor).
package counters

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// Snapshot is a cumulative counter file captured at one instant. Snapshots
// are value types; Delta subtracts two of them to obtain interval counters,
// which is how an online sampler uses the PMU.
type Snapshot struct {
	// WallCycles is the simulated wall-clock time, in core cycles.
	WallCycles int64
	// ActiveCores is the number of cores that participated in the run.
	ActiveCores int
	// SMTLevel is the SMT level the snapshot was captured at.
	SMTLevel int

	// CoreCycles is the sum over active cores of elapsed cycles
	// (WallCycles × ActiveCores for a machine-wide snapshot).
	CoreCycles uint64
	// DispHeldCycles counts core-cycles in which instruction dispatch was
	// held for lack of execution resources (a full issue queue or a full
	// reorder window).
	DispHeldCycles uint64

	// Retired counts completed instructions; RetiredByClass breaks the
	// count down by instruction class. Spin-loop instructions injected by
	// contended locks are real retired instructions, exactly as they are
	// on hardware — that is the effect the metric's mix term keys on.
	Retired        uint64
	RetiredByClass [isa.NumClasses]uint64

	// IssuedByPort counts issue-slot uses per issue port, including
	// speculative issues, matching PMU port-event semantics.
	IssuedByPort []uint64

	// HitsByLevel counts demand data accesses satisfied at each level of
	// the memory hierarchy.
	HitsByLevel [mem.NumLevels]uint64

	// BranchLookups and BranchMispredicts count predicted branches.
	BranchLookups, BranchMispredicts uint64

	// ThreadBusy is the per-software-thread CPU time in cycles: cycles the
	// thread's hardware context was fetching, executing or spinning, as
	// opposed to sleeping or finished.
	ThreadBusy []int64

	// DramLines and DramStall describe the shared memory channel: lines
	// transferred and total queueing delay imposed.
	DramLines, DramStall uint64
}

// Delta returns the interval counters s − prev. Slice-valued fields are
// subtracted element-wise; prev may have shorter slices (zero-extended).
func (s *Snapshot) Delta(prev *Snapshot) Snapshot {
	d := *s
	d.IssuedByPort = make([]uint64, len(s.IssuedByPort))
	copy(d.IssuedByPort, s.IssuedByPort)
	d.ThreadBusy = make([]int64, len(s.ThreadBusy))
	copy(d.ThreadBusy, s.ThreadBusy)

	d.WallCycles -= prev.WallCycles
	d.CoreCycles -= prev.CoreCycles
	d.DispHeldCycles -= prev.DispHeldCycles
	d.Retired -= prev.Retired
	for c := range d.RetiredByClass {
		d.RetiredByClass[c] -= prev.RetiredByClass[c]
	}
	for i := range prev.IssuedByPort {
		if i < len(d.IssuedByPort) {
			d.IssuedByPort[i] -= prev.IssuedByPort[i]
		}
	}
	for l := range d.HitsByLevel {
		d.HitsByLevel[l] -= prev.HitsByLevel[l]
	}
	d.BranchLookups -= prev.BranchLookups
	d.BranchMispredicts -= prev.BranchMispredicts
	for i := range prev.ThreadBusy {
		if i < len(d.ThreadBusy) {
			d.ThreadBusy[i] -= prev.ThreadBusy[i]
		}
	}
	d.DramLines -= prev.DramLines
	d.DramStall -= prev.DramStall
	return d
}

// ClassFraction returns the retired-instruction share of the given classes
// combined (0 when nothing retired).
func (s *Snapshot) ClassFraction(classes ...isa.Class) float64 {
	if s.Retired == 0 {
		return 0
	}
	var n uint64
	for _, c := range classes {
		n += s.RetiredByClass[c]
	}
	return float64(n) / float64(s.Retired)
}

// PortFraction returns the share of all issue-slot uses that went to the
// given ports combined (0 when nothing issued).
func (s *Snapshot) PortFraction(ports ...int) float64 {
	var total uint64
	for _, n := range s.IssuedByPort {
		total += n
	}
	if total == 0 {
		return 0
	}
	var n uint64
	for _, p := range ports {
		if p >= 0 && p < len(s.IssuedByPort) {
			n += s.IssuedByPort[p]
		}
	}
	return float64(n) / float64(total)
}

// DispHeldFraction returns dispatch-held cycles per core cycle, the second
// factor of the SMT-selection metric.
func (s *Snapshot) DispHeldFraction() float64 {
	if s.CoreCycles == 0 {
		return 0
	}
	return float64(s.DispHeldCycles) / float64(s.CoreCycles)
}

// AvgThreadBusy returns the mean per-thread CPU time in cycles over threads
// that ran at all.
func (s *Snapshot) AvgThreadBusy() float64 {
	var sum int64
	n := 0
	for _, b := range s.ThreadBusy {
		if b > 0 {
			sum += b
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// ScalabilityRatio returns wall time over average per-thread CPU time, the
// third factor of the SMT-selection metric. It is at least 1 for any run in
// which some thread was busy the whole time, and grows when threads sleep or
// sit idle behind software bottlenecks.
func (s *Snapshot) ScalabilityRatio() float64 {
	avg := s.AvgThreadBusy()
	if avg <= 0 {
		return 1
	}
	r := float64(s.WallCycles) / avg
	if r < 1 {
		return 1
	}
	return r
}

// IPC returns machine-wide retired instructions per wall cycle.
func (s *Snapshot) IPC() float64 {
	if s.WallCycles <= 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.WallCycles)
}

// CPI returns average per-thread cycles per instruction: total thread CPU
// time divided by retired instructions. This matches the per-thread CPI the
// paper plots in Fig. 2.
func (s *Snapshot) CPI() float64 {
	if s.Retired == 0 {
		return 0
	}
	var busy int64
	for _, b := range s.ThreadBusy {
		busy += b
	}
	return float64(busy) / float64(s.Retired)
}

// MissesPerKilo returns misses beyond the given level per 1000 retired
// instructions; MissesPerKilo(LevelL1) is the classic L1 MPKI.
func (s *Snapshot) MissesPerKilo(level mem.Level) float64 {
	if s.Retired == 0 {
		return 0
	}
	var misses uint64
	for l := level + 1; l < mem.NumLevels; l++ {
		misses += s.HitsByLevel[l]
	}
	return 1000 * float64(misses) / float64(s.Retired)
}

// BranchMPKI returns branch mispredictions per 1000 retired instructions.
func (s *Snapshot) BranchMPKI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return 1000 * float64(s.BranchMispredicts) / float64(s.Retired)
}

// canonicalVersion tags the canonical serialisation layout. Bump it whenever
// a field is added to Snapshot so stale fingerprints can never alias new
// ones.
const canonicalVersion = "smtsnap1"

// AppendCanonical appends a canonical byte serialisation of the snapshot to
// b and returns the extended slice. The encoding is versioned, covers every
// field in a fixed order, and length-prefixes the slice-valued fields, so
// two snapshots serialise identically if and only if they are semantically
// identical. It exists to give caches and deduplicating services a stable
// identity for a counter observation.
func (s *Snapshot) AppendCanonical(b []byte) []byte {
	sep := byte('|')
	b = append(b, canonicalVersion...)
	addI := func(v int64) {
		b = append(b, sep)
		b = strconv.AppendInt(b, v, 10)
	}
	addU := func(v uint64) {
		b = append(b, sep)
		b = strconv.AppendUint(b, v, 10)
	}
	addI(s.WallCycles)
	addI(int64(s.ActiveCores))
	addI(int64(s.SMTLevel))
	addU(s.CoreCycles)
	addU(s.DispHeldCycles)
	addU(s.Retired)
	for _, v := range s.RetiredByClass {
		addU(v)
	}
	addI(int64(len(s.IssuedByPort)))
	for _, v := range s.IssuedByPort {
		addU(v)
	}
	for _, v := range s.HitsByLevel {
		addU(v)
	}
	addU(s.BranchLookups)
	addU(s.BranchMispredicts)
	addI(int64(len(s.ThreadBusy)))
	for _, v := range s.ThreadBusy {
		addI(v)
	}
	addU(s.DramLines)
	addU(s.DramStall)
	return b
}

// Fingerprint returns a stable 64-bit identity for the snapshot: FNV-1a over
// the canonical serialisation (the repository's xrand.HashString constants)
// passed through a SplitMix64 finaliser for avalanche. Equal snapshots have
// equal fingerprints under every process, platform and run.
func (s *Snapshot) Fingerprint() uint64 {
	return xrand.Mix64(xrand.HashBytes(s.AppendCanonical(nil)))
}

// String renders a compact human-readable counter dump.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%d cycles, smt=%d, cores=%d\n", s.WallCycles, s.SMTLevel, s.ActiveCores)
	fmt.Fprintf(&b, "retired=%d ipc=%.3f cpi=%.3f\n", s.Retired, s.IPC(), s.CPI())
	fmt.Fprintf(&b, "dispatch-held=%.4f of core cycles\n", s.DispHeldFraction())
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if s.RetiredByClass[c] > 0 {
			fmt.Fprintf(&b, "  class %-7s %9d (%.1f%%)\n", c, s.RetiredByClass[c],
				100*s.ClassFraction(c))
		}
	}
	for p, n := range s.IssuedByPort {
		fmt.Fprintf(&b, "  port %d issued %9d (%.1f%%)\n", p, n, 100*s.PortFraction(p))
	}
	fmt.Fprintf(&b, "L1 MPKI=%.2f L2 MPKI=%.2f L3 MPKI=%.2f brMPKI=%.2f\n",
		s.MissesPerKilo(mem.LevelL1), s.MissesPerKilo(mem.LevelL2),
		s.MissesPerKilo(mem.LevelL3), s.BranchMPKI())
	fmt.Fprintf(&b, "scalability wall/avg-thread=%.3f\n", s.ScalabilityRatio())
	return b.String()
}
