// Package arch describes the simulated processor architectures: their issue
// ports, the mapping from instruction classes to ports, pipeline widths,
// execution latencies, cache geometry, and the "ideal SMT instruction mix"
// that the SMT-selection metric measures deviation from.
//
// Two concrete architectures are provided, matching the two systems the
// paper evaluates:
//
//   - POWER7: 8 cores, 4-way SMT, the issue-port layout of the paper's
//     Fig. 4 (two load/store ports, two fixed-point ports, two vector-scalar
//     ports, one branch port, with the CR port merged into the branch port
//     exactly as the paper's Eq. 2 does).
//   - Nehalem: 4 cores, 2-way SMT, the unified-reservation-station layout of
//     the paper's Fig. 5 (three compute ports, one load port, and the
//     store-address/store-data port pair).
package arch

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// PortMask is a bitmask over a core's issue ports (bit i = port i).
type PortMask uint16

// Has reports whether port p is set in the mask.
func (m PortMask) Has(p int) bool { return m&(1<<uint(p)) != 0 }

// Count returns the number of ports in the mask.
func (m PortMask) Count() int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// MixTerm is one term of the instruction-mix-deviation factor of the
// SMT-selection metric: an observed fraction compared against its ideal
// share. The observed fraction is computed either over instruction classes
// (POWER7, whose ports are tied to instruction types — paper Eq. 2) or over
// raw issue-port counts (Nehalem, whose ports serve unrelated instructions —
// paper Eq. 3).
type MixTerm struct {
	// Name is a short label for reports ("loads", "P0", ...).
	Name string
	// Ideal is the term's share in the ideal SMT instruction mix.
	Ideal float64
	// Classes, when non-empty, selects the instruction classes whose
	// combined fraction of all instructions forms the observed value.
	Classes []isa.Class
	// Ports, when Classes is empty, selects the issue ports whose combined
	// fraction of all issue-slot uses forms the observed value.
	Ports []int
}

// MemConfig describes the cache hierarchy geometry and latencies of a chip.
// Sizes are in bytes; latencies in cycles. The hierarchy is
// per-core L1D and L2, chip-shared L3, and a machine-shared DRAM channel
// with finite bandwidth.
type MemConfig struct {
	LineSize int

	L1Size, L1Ways      int
	L2Size, L2Ways      int
	L3Size, L3Ways      int // L3Size is the total shared capacity per chip
	L1Lat, L2Lat, L3Lat int
	MemLat              int
	// MemCyclesPerLine is the reciprocal bandwidth of the shared memory
	// channel: a new cache line can begin transfer every this many cycles.
	// Concurrent misses beyond the bandwidth queue behind each other, and
	// the queueing delay is uncapped.
	MemCyclesPerLine int
}

// Desc is a complete architecture description.
type Desc struct {
	// Name identifies the architecture in reports ("POWER7", "Nehalem").
	Name string

	// NumPorts is the number of issue ports per core.
	NumPorts int
	// PortNames labels each port for reports.
	PortNames []string

	// ClassPorts maps each instruction class to the ports able to execute
	// it. Issue picks any free eligible port.
	ClassPorts [isa.NumClasses]PortMask
	// ExtraPorts maps each class to ports additionally consumed (and
	// counted) when the instruction issues — Nehalem's store-data port
	// fires together with the store-address port.
	ExtraPorts [isa.NumClasses]PortMask

	// Latency is the execution latency per class, in cycles. Load latency
	// here is the minimum (L1-hit) latency; the cache hierarchy supplies
	// the real value per access.
	Latency [isa.NumClasses]int

	// FetchWidth, DispatchWidth and RetireWidth are per-core, per-cycle
	// pipeline widths shared by all active hardware contexts.
	FetchWidth, DispatchWidth, RetireWidth int
	// FetchThreads is how many hardware contexts can fetch in one cycle.
	FetchThreads int

	// WindowSize is the core's total reorder-window capacity; it is
	// partitioned evenly among the active hardware contexts, so a thread
	// running at SMT1 gets the whole window (as POWER7 does).
	WindowSize int
	// PortQueueCap is the per-port issue-queue capacity, shared among
	// contexts. Dispatch is held when the target queue is full; held
	// cycles feed the DispHeld factor of the metric.
	PortQueueCap int

	// MispredictPenalty is the fetch-redirect delay after a mispredicted
	// branch resolves.
	MispredictPenalty int

	// MaxSMT is the deepest SMT level (hardware contexts per core).
	MaxSMT int
	// SMTLevels lists the levels the platform exposes (POWER7: 1, 2, 4).
	SMTLevels []int

	// CoresPerChip is the core count of one chip.
	CoresPerChip int

	// Mem is the cache/memory geometry.
	Mem MemConfig

	// MixTerms defines the ideal-SMT-mix comparison for the metric.
	MixTerms []MixTerm

	// BranchBits is the log2 size of the gshare pattern-history table.
	BranchBits int
}

// Validate checks internal consistency of the description.
func (d *Desc) Validate() error {
	if d.NumPorts <= 0 || d.NumPorts > 16 {
		return fmt.Errorf("arch %s: NumPorts %d out of range", d.Name, d.NumPorts)
	}
	if len(d.PortNames) != d.NumPorts {
		return fmt.Errorf("arch %s: %d port names for %d ports", d.Name, len(d.PortNames), d.NumPorts)
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if d.ClassPorts[c] == 0 {
			return fmt.Errorf("arch %s: class %s has no eligible ports", d.Name, c)
		}
		if d.ClassPorts[c]>>uint(d.NumPorts) != 0 || d.ExtraPorts[c]>>uint(d.NumPorts) != 0 {
			return fmt.Errorf("arch %s: class %s references ports beyond %d", d.Name, c, d.NumPorts)
		}
		if d.Latency[c] <= 0 {
			return fmt.Errorf("arch %s: class %s has non-positive latency", d.Name, c)
		}
	}
	if d.FetchWidth <= 0 || d.DispatchWidth <= 0 || d.RetireWidth <= 0 {
		return fmt.Errorf("arch %s: non-positive pipeline width", d.Name)
	}
	if d.FetchThreads <= 0 {
		return fmt.Errorf("arch %s: non-positive FetchThreads", d.Name)
	}
	if d.WindowSize < d.MaxSMT {
		return fmt.Errorf("arch %s: window %d smaller than SMT depth %d", d.Name, d.WindowSize, d.MaxSMT)
	}
	if d.PortQueueCap <= 0 {
		return fmt.Errorf("arch %s: non-positive port queue capacity", d.Name)
	}
	if d.MaxSMT <= 0 {
		return fmt.Errorf("arch %s: non-positive MaxSMT", d.Name)
	}
	if len(d.SMTLevels) == 0 {
		return fmt.Errorf("arch %s: no SMT levels", d.Name)
	}
	for _, l := range d.SMTLevels {
		if l <= 0 || l > d.MaxSMT {
			return fmt.Errorf("arch %s: SMT level %d out of range", d.Name, l)
		}
		if d.WindowSize%l != 0 {
			return fmt.Errorf("arch %s: window %d not divisible by SMT level %d", d.Name, d.WindowSize, l)
		}
	}
	if d.CoresPerChip <= 0 {
		return fmt.Errorf("arch %s: non-positive core count", d.Name)
	}
	if err := d.Mem.validate(d.Name); err != nil {
		return err
	}
	sum := 0.0
	for _, t := range d.MixTerms {
		if t.Ideal <= 0 || t.Ideal >= 1 {
			return fmt.Errorf("arch %s: mix term %s ideal %v out of (0,1)", d.Name, t.Name, t.Ideal)
		}
		if len(t.Classes) == 0 && len(t.Ports) == 0 {
			return fmt.Errorf("arch %s: mix term %s selects nothing", d.Name, t.Name)
		}
		sum += t.Ideal
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("arch %s: mix term ideals sum to %v, want 1", d.Name, sum)
	}
	if d.BranchBits < 4 || d.BranchBits > 24 {
		return fmt.Errorf("arch %s: BranchBits %d out of range", d.Name, d.BranchBits)
	}
	return nil
}

func (m *MemConfig) validate(name string) error {
	if m.LineSize <= 0 || m.LineSize&(m.LineSize-1) != 0 {
		return fmt.Errorf("arch %s: line size %d not a positive power of two", name, m.LineSize)
	}
	for _, c := range []struct {
		label      string
		size, ways int
	}{{"L1", m.L1Size, m.L1Ways}, {"L2", m.L2Size, m.L2Ways}, {"L3", m.L3Size, m.L3Ways}} {
		if c.size <= 0 || c.ways <= 0 {
			return fmt.Errorf("arch %s: %s geometry non-positive", name, c.label)
		}
		sets := c.size / (m.LineSize * c.ways)
		if sets <= 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("arch %s: %s set count %d not a positive power of two", name, c.label, sets)
		}
	}
	if m.L1Lat <= 0 || m.L2Lat <= m.L1Lat || m.L3Lat <= m.L2Lat || m.MemLat <= m.L3Lat {
		return fmt.Errorf("arch %s: cache latencies must increase by level", name)
	}
	if m.MemCyclesPerLine <= 0 {
		return fmt.Errorf("arch %s: memory bandwidth parameters non-positive", name)
	}
	return nil
}

// WindowPerContext returns the reorder-window share of one hardware context
// at the given SMT level.
func (d *Desc) WindowPerContext(smtLevel int) int {
	return d.WindowSize / smtLevel
}

// SupportsSMT reports whether level is one of the platform's exposed levels.
func (d *Desc) SupportsSMT(level int) bool {
	for _, l := range d.SMTLevels {
		if l == level {
			return true
		}
	}
	return false
}

// LowerLevel returns the next exposed SMT level below level, or level
// itself when none is lower (SMT1 stays at 1).
func (d *Desc) LowerLevel(level int) int {
	next := level
	for _, l := range d.SMTLevels {
		if l < level && (next == level || l > next) {
			next = l
		}
	}
	return next
}

// POWER7 port indices (paper Fig. 4; CR merged into BR per Eq. 2).
const (
	P7PortLS0 = iota
	P7PortLS1
	P7PortFX0
	P7PortFX1
	P7PortVS0
	P7PortVS1
	P7PortBR
	p7NumPorts
)

// ByName returns the architecture a request or flag names, matched without
// regard to case: "power7" (or "p7"), "nehalem" (or "i7") and "smt8" (or
// "genericsmt8").
func ByName(name string) (*Desc, error) {
	switch strings.ToLower(name) {
	case "power7", "p7":
		return POWER7(), nil
	case "nehalem", "i7":
		return Nehalem(), nil
	case "smt8", "genericsmt8":
		return GenericSMT8(), nil
	}
	return nil, fmt.Errorf("unknown architecture %q (want power7, nehalem or smt8)", name)
}

// POWER7 returns the POWER7-like architecture model: 8 cores, SMT1/2/4,
// eight-wide fetch, six-wide dispatch, and the Fig. 4 issue ports. The ideal
// SMT mix is the paper's Eq. 2 vector: 1/7 loads, 1/7 stores, 1/7 branches,
// 2/7 fixed-point, 2/7 vector-scalar.
func POWER7() *Desc {
	d := &Desc{
		Name:      "POWER7",
		NumPorts:  p7NumPorts,
		PortNames: []string{"LS0", "LS1", "FX0", "FX1", "VS0", "VS1", "BR"},

		FetchWidth:    8,
		DispatchWidth: 6,
		RetireWidth:   6,
		FetchThreads:  2,

		WindowSize:        128,
		PortQueueCap:      12,
		MispredictPenalty: 16,

		MaxSMT:       4,
		SMTLevels:    []int{1, 2, 4},
		CoresPerChip: 8,

		Mem: MemConfig{
			LineSize: 128,
			L1Size:   32 << 10, L1Ways: 8,
			L2Size: 256 << 10, L2Ways: 8,
			L3Size: 32 << 20, L3Ways: 16,
			L1Lat: 2, L2Lat: 8, L3Lat: 27, MemLat: 230,
			MemCyclesPerLine: 4,
		},

		MixTerms: []MixTerm{
			{Name: "loads", Ideal: 1.0 / 7, Classes: []isa.Class{isa.Load}},
			{Name: "stores", Ideal: 1.0 / 7, Classes: []isa.Class{isa.Store}},
			{Name: "branches", Ideal: 1.0 / 7, Classes: []isa.Class{isa.Branch}},
			{Name: "fxu", Ideal: 2.0 / 7, Classes: []isa.Class{isa.Int, isa.IntMul}},
			{Name: "vsu", Ideal: 2.0 / 7, Classes: []isa.Class{isa.FPVec, isa.FPDiv}},
		},

		BranchBits: 14,
	}

	ls := PortMask(1<<P7PortLS0 | 1<<P7PortLS1)
	fx := PortMask(1<<P7PortFX0 | 1<<P7PortFX1)
	vs := PortMask(1<<P7PortVS0 | 1<<P7PortVS1)
	br := PortMask(1 << P7PortBR)

	d.ClassPorts[isa.Load] = ls
	d.ClassPorts[isa.Store] = ls
	d.ClassPorts[isa.Branch] = br
	d.ClassPorts[isa.Int] = fx
	d.ClassPorts[isa.IntMul] = fx
	d.ClassPorts[isa.FPVec] = vs
	d.ClassPorts[isa.FPDiv] = vs

	d.Latency[isa.Load] = d.Mem.L1Lat
	d.Latency[isa.Store] = 1
	d.Latency[isa.Branch] = 1
	d.Latency[isa.Int] = 1
	d.Latency[isa.IntMul] = 7
	d.Latency[isa.FPVec] = 6
	d.Latency[isa.FPDiv] = 26

	return d
}

// Nehalem port indices (paper Fig. 5).
const (
	NhmPort0 = iota // FP multiply/divide, SSE int ALU, int ALU & shift
	NhmPort1        // FP add, complex integer, int ALU & LEA
	NhmPort2        // load
	NhmPort3        // store address
	NhmPort4        // store data
	NhmPort5        // branch, FP shuffle, SSE int ALU, int ALU & shift
	nhmNumPorts
)

// Nehalem returns the Nehalem Core i7-like architecture model: 4 cores,
// SMT1/2, the Fig. 5 unified-reservation-station port layout. The ideal SMT
// mix is the paper's Eq. 3: a uniform 1/6 of issue-slot uses per port, with a
// store consuming the store-address and store-data ports together.
func Nehalem() *Desc {
	d := &Desc{
		Name:      "Nehalem",
		NumPorts:  nhmNumPorts,
		PortNames: []string{"P0", "P1", "P2", "P3", "P4", "P5"},

		FetchWidth:    4,
		DispatchWidth: 4,
		RetireWidth:   4,
		FetchThreads:  2,

		WindowSize:        128,
		PortQueueCap:      9, // 36-entry unified RS spread over 4 scheduling groups
		MispredictPenalty: 17,

		MaxSMT:       2,
		SMTLevels:    []int{1, 2},
		CoresPerChip: 4,

		Mem: MemConfig{
			LineSize: 64,
			L1Size:   32 << 10, L1Ways: 8,
			L2Size: 256 << 10, L2Ways: 8,
			L3Size: 8 << 20, L3Ways: 16,
			L1Lat: 4, L2Lat: 10, L3Lat: 38, MemLat: 200,
			MemCyclesPerLine: 5,
		},

		MixTerms: []MixTerm{
			{Name: "P0", Ideal: 1.0 / 6, Ports: []int{NhmPort0}},
			{Name: "P1", Ideal: 1.0 / 6, Ports: []int{NhmPort1}},
			{Name: "P2", Ideal: 1.0 / 6, Ports: []int{NhmPort2}},
			{Name: "P3", Ideal: 1.0 / 6, Ports: []int{NhmPort3}},
			{Name: "P4", Ideal: 1.0 / 6, Ports: []int{NhmPort4}},
			{Name: "P5", Ideal: 1.0 / 6, Ports: []int{NhmPort5}},
		},

		BranchBits: 14,
	}

	compute := PortMask(1<<NhmPort0 | 1<<NhmPort1 | 1<<NhmPort5)

	d.ClassPorts[isa.Load] = 1 << NhmPort2
	d.ClassPorts[isa.Store] = 1 << NhmPort3
	d.ExtraPorts[isa.Store] = 1 << NhmPort4
	d.ClassPorts[isa.Branch] = 1 << NhmPort5
	d.ClassPorts[isa.Int] = compute
	d.ClassPorts[isa.IntMul] = 1 << NhmPort1
	d.ClassPorts[isa.FPVec] = PortMask(1<<NhmPort0 | 1<<NhmPort1)
	d.ClassPorts[isa.FPDiv] = 1 << NhmPort0

	d.Latency[isa.Load] = d.Mem.L1Lat
	d.Latency[isa.Store] = 1
	d.Latency[isa.Branch] = 1
	d.Latency[isa.Int] = 1
	d.Latency[isa.IntMul] = 6
	d.Latency[isa.FPVec] = 4
	d.Latency[isa.FPDiv] = 22

	return d
}
