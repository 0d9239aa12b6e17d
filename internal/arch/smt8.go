package arch

import "repro/internal/isa"

// SMT8 port indices. The layout is POWER8-flavoured: alongside the two
// universal load/store ports there are two load-only ports, so the core
// sustains four loads per cycle; fetch/dispatch widen to eight and the
// reorder window doubles.
const (
	S8PortLS0 = iota // load or store
	S8PortLS1
	S8PortL0 // load only
	S8PortL1
	S8PortFX0
	S8PortFX1
	S8PortVS0
	S8PortVS1
	S8PortBR
	s8NumPorts
)

// GenericSMT8 returns a forward-looking 8-way-SMT architecture model. The
// paper's future work asks for the metric to be "tested on other
// architectures"; this model exercises exactly that path: the generic Eq. 1
// instantiates over a port/class structure that matches neither POWER7 nor
// Nehalem, and the rest of the pipeline (threshold calibration included)
// follows unchanged.
//
// The ideal SMT mix follows the Eq. 2 recipe — one share per issue-port
// slice, loads and stores separated because they rely on separate buffers:
// the four load-capable ports contribute a 3/10 load + 1/10 store split,
// the paired FX and VS pipes 1/4 each, and the (CR-merged) branch unit the
// remaining 1/10.
func GenericSMT8() *Desc {
	d := &Desc{
		Name:      "GenericSMT8",
		NumPorts:  s8NumPorts,
		PortNames: []string{"LS0", "LS1", "L0", "L1", "FX0", "FX1", "VS0", "VS1", "BR"},

		FetchWidth:    8,
		DispatchWidth: 8,
		RetireWidth:   8,
		FetchThreads:  2,

		WindowSize:        256,
		PortQueueCap:      16,
		MispredictPenalty: 18,

		MaxSMT:       8,
		SMTLevels:    []int{1, 2, 4, 8},
		CoresPerChip: 8,

		Mem: MemConfig{
			LineSize: 128,
			L1Size:   64 << 10, L1Ways: 8,
			L2Size: 512 << 10, L2Ways: 8,
			L3Size: 64 << 20, L3Ways: 16,
			L1Lat: 3, L2Lat: 12, L3Lat: 30, MemLat: 220,
			MemCyclesPerLine: 3,
		},

		MixTerms: []MixTerm{
			{Name: "loads", Ideal: 0.30, Classes: []isa.Class{isa.Load}},
			{Name: "stores", Ideal: 0.10, Classes: []isa.Class{isa.Store}},
			{Name: "branches", Ideal: 0.10, Classes: []isa.Class{isa.Branch}},
			{Name: "fxu", Ideal: 0.25, Classes: []isa.Class{isa.Int, isa.IntMul}},
			{Name: "vsu", Ideal: 0.25, Classes: []isa.Class{isa.FPVec, isa.FPDiv}},
		},

		BranchBits: 15,
	}

	loads := PortMask(1<<S8PortLS0 | 1<<S8PortLS1 | 1<<S8PortL0 | 1<<S8PortL1)
	stores := PortMask(1<<S8PortLS0 | 1<<S8PortLS1)
	fx := PortMask(1<<S8PortFX0 | 1<<S8PortFX1)
	vs := PortMask(1<<S8PortVS0 | 1<<S8PortVS1)

	d.ClassPorts[isa.Load] = loads
	d.ClassPorts[isa.Store] = stores
	d.ClassPorts[isa.Branch] = 1 << S8PortBR
	d.ClassPorts[isa.Int] = fx
	d.ClassPorts[isa.IntMul] = fx
	d.ClassPorts[isa.FPVec] = vs
	d.ClassPorts[isa.FPDiv] = vs

	d.Latency[isa.Load] = d.Mem.L1Lat
	d.Latency[isa.Store] = 1
	d.Latency[isa.Branch] = 1
	d.Latency[isa.Int] = 1
	d.Latency[isa.IntMul] = 6
	d.Latency[isa.FPVec] = 6
	d.Latency[isa.FPDiv] = 24

	return d
}
