package arch

import (
	"math"
	"testing"

	"repro/internal/isa"
)

// TestByName pins the architecture names requests and flags may use,
// matched without regard to case, and the error for any other name.
func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"power7": "POWER7", "P7": "POWER7",
		"nehalem": "Nehalem", "i7": "Nehalem",
		"smt8": GenericSMT8().Name, "GenericSMT8": GenericSMT8().Name,
	} {
		d, err := ByName(name)
		if err != nil || d.Name != want {
			t.Errorf("ByName(%q) = %v, %v; want %s", name, d, err, want)
		}
	}
	for _, name := range []string{"", "z80", "corei7"} {
		_, err := ByName(name)
		if want := `unknown architecture "` + name + `" (want power7, nehalem or smt8)`; err == nil || err.Error() != want {
			t.Errorf("ByName(%q) error %v, want %q", name, err, want)
		}
	}
}

func TestPOWER7Valid(t *testing.T) {
	if err := POWER7().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNehalemValid(t *testing.T) {
	if err := Nehalem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPOWER7IdealMix(t *testing.T) {
	// The paper's Eq. 2: 1/7 loads, 1/7 stores, 1/7 branches, 2/7 FXU,
	// 2/7 VSU.
	d := POWER7()
	want := map[string]float64{
		"loads": 1.0 / 7, "stores": 1.0 / 7, "branches": 1.0 / 7,
		"fxu": 2.0 / 7, "vsu": 2.0 / 7,
	}
	if len(d.MixTerms) != len(want) {
		t.Fatalf("POWER7 has %d mix terms, want %d", len(d.MixTerms), len(want))
	}
	for _, term := range d.MixTerms {
		if w, ok := want[term.Name]; !ok || math.Abs(term.Ideal-w) > 1e-12 {
			t.Fatalf("term %s ideal %v, want %v", term.Name, term.Ideal, want[term.Name])
		}
		if len(term.Classes) == 0 {
			t.Fatalf("POWER7 term %s must be class-based (Eq. 2)", term.Name)
		}
	}
}

func TestNehalemIdealMix(t *testing.T) {
	// The paper's Eq. 3: uniform 1/6 per issue port, port-count based.
	d := Nehalem()
	if len(d.MixTerms) != 6 {
		t.Fatalf("Nehalem has %d mix terms, want 6", len(d.MixTerms))
	}
	for _, term := range d.MixTerms {
		if math.Abs(term.Ideal-1.0/6) > 1e-12 {
			t.Fatalf("term %s ideal %v, want 1/6", term.Name, term.Ideal)
		}
		if len(term.Ports) != 1 {
			t.Fatalf("Nehalem term %s must be single-port based (Eq. 3)", term.Name)
		}
	}
}

func TestPOWER7PortLayout(t *testing.T) {
	d := POWER7()
	ls := PortMask(1<<P7PortLS0 | 1<<P7PortLS1)
	if d.ClassPorts[isa.Load] != ls || d.ClassPorts[isa.Store] != ls {
		t.Fatal("POWER7 loads/stores must share the two LS ports")
	}
	if d.ClassPorts[isa.Branch] != 1<<P7PortBR {
		t.Fatal("POWER7 branches must use the BR port")
	}
	if d.ClassPorts[isa.FPVec].Count() != 2 || d.ClassPorts[isa.Int].Count() != 2 {
		t.Fatal("POWER7 must have 2 VS and 2 FX ports")
	}
}

func TestNehalemStoreUsesTwoPorts(t *testing.T) {
	d := Nehalem()
	if d.ClassPorts[isa.Store] != 1<<NhmPort3 {
		t.Fatal("Nehalem store-address must be port 3")
	}
	if d.ExtraPorts[isa.Store] != 1<<NhmPort4 {
		t.Fatal("Nehalem store-data must fire port 4")
	}
}

func TestSMTLevels(t *testing.T) {
	p7 := POWER7()
	for _, l := range []int{1, 2, 4} {
		if !p7.SupportsSMT(l) {
			t.Fatalf("POWER7 must expose SMT%d", l)
		}
	}
	if p7.SupportsSMT(3) || p7.SupportsSMT(8) {
		t.Fatal("POWER7 must not expose SMT3/SMT8")
	}
	i7 := Nehalem()
	if !i7.SupportsSMT(1) || !i7.SupportsSMT(2) || i7.SupportsSMT(4) {
		t.Fatal("Nehalem must expose exactly SMT1/SMT2")
	}
}

func TestWindowPartitioning(t *testing.T) {
	d := POWER7()
	if d.WindowPerContext(1) != d.WindowSize {
		t.Fatal("SMT1 must own the whole window")
	}
	if d.WindowPerContext(4)*4 != d.WindowSize {
		t.Fatal("SMT4 must partition the window evenly")
	}
}

func TestPortMask(t *testing.T) {
	m := PortMask(0b1011)
	if !m.Has(0) || !m.Has(1) || m.Has(2) || !m.Has(3) {
		t.Fatal("PortMask.Has broken")
	}
	if m.Count() != 3 {
		t.Fatalf("Count() = %d, want 3", m.Count())
	}
}

func TestValidateCatchesBrokenDescs(t *testing.T) {
	broken := []func(*Desc){
		func(d *Desc) { d.PortNames = d.PortNames[:1] },
		func(d *Desc) { d.ClassPorts[isa.Load] = 0 },
		func(d *Desc) { d.Latency[isa.Int] = 0 },
		func(d *Desc) { d.FetchWidth = 0 },
		func(d *Desc) { d.SMTLevels = []int{3} },
		func(d *Desc) { d.MixTerms[0].Ideal = 0.9 },
		func(d *Desc) { d.Mem.L1Lat = 100 },
		func(d *Desc) { d.CoresPerChip = 0 },
		func(d *Desc) { d.PortQueueCap = 0 },
		func(d *Desc) { d.BranchBits = 1 },
	}
	for i, mutate := range broken {
		d := POWER7()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Fatalf("mutation %d passed validation", i)
		}
	}
}

func TestChipCounts(t *testing.T) {
	if POWER7().CoresPerChip != 8 {
		t.Fatal("POWER7 chip must have 8 cores (paper methodology)")
	}
	if Nehalem().CoresPerChip != 4 {
		t.Fatal("Nehalem chip must have 4 cores (paper methodology)")
	}
	if POWER7().MaxSMT != 4 || Nehalem().MaxSMT != 2 {
		t.Fatal("SMT depths must match the paper (4-way POWER7, 2-way Nehalem)")
	}
}

func TestGenericSMT8Valid(t *testing.T) {
	d := GenericSMT8()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.MaxSMT != 8 || len(d.SMTLevels) != 4 {
		t.Fatalf("SMT8 levels wrong: max %d, %v", d.MaxSMT, d.SMTLevels)
	}
	if d.WindowPerContext(8)*8 != d.WindowSize {
		t.Fatal("SMT8 window does not partition evenly")
	}
}

func TestSMT8LoadPorts(t *testing.T) {
	d := GenericSMT8()
	if d.ClassPorts[isa.Load].Count() != 4 {
		t.Fatalf("SMT8 must have 4 load-capable ports, got %d", d.ClassPorts[isa.Load].Count())
	}
	if d.ClassPorts[isa.Store].Count() != 2 {
		t.Fatalf("SMT8 must have 2 store-capable ports, got %d", d.ClassPorts[isa.Store].Count())
	}
	// The load-only ports must not accept stores.
	if d.ClassPorts[isa.Store].Has(S8PortL0) || d.ClassPorts[isa.Store].Has(S8PortL1) {
		t.Fatal("store eligibility leaked onto load-only ports")
	}
}

func TestValidateWindowDivisibility(t *testing.T) {
	d := POWER7()
	d.WindowSize = 126 // not divisible by 4
	if err := d.Validate(); err == nil {
		t.Fatal("non-partitionable window accepted")
	}
}

func TestValidateMemConfig(t *testing.T) {
	cases := []func(*Desc){
		func(d *Desc) { d.Mem.LineSize = 100 },       // not a power of two
		func(d *Desc) { d.Mem.L1Size = 3 * 128 * 8 }, // three sets: not a power of two
		func(d *Desc) { d.Mem.MemCyclesPerLine = 0 }, // no bandwidth
		func(d *Desc) { d.Mem.L2Lat = d.Mem.L1Lat },  // non-increasing
		func(d *Desc) { d.Mem.MemLat = d.Mem.L3Lat }, // non-increasing
		func(d *Desc) { d.Mem.L3Ways = 0 },           // no ways
	}
	for i, mutate := range cases {
		d := POWER7()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("mem mutation %d passed validation", i)
		}
	}
}

func TestValidateMixTermCoverage(t *testing.T) {
	d := Nehalem()
	d.MixTerms[0].Ports = nil // selects nothing
	if err := d.Validate(); err == nil {
		t.Fatal("empty mix term accepted")
	}
	d = Nehalem()
	d.MixTerms = d.MixTerms[:5] // ideals no longer sum to 1
	if err := d.Validate(); err == nil {
		t.Fatal("non-normalised mix accepted")
	}
}

func TestValidatePortOverflow(t *testing.T) {
	d := POWER7()
	d.ClassPorts[isa.Load] = 1 << 15 // beyond NumPorts
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-range port mask accepted")
	}
}

// TestLowerLevel steps down one exposed level at a time on every
// architecture; SMT1, with nothing below it, stays put.
func TestLowerLevel(t *testing.T) {
	for _, c := range []struct {
		d    *Desc
		want map[int]int // level -> next level down
	}{
		{POWER7(), map[int]int{4: 2, 2: 1, 1: 1}},
		{Nehalem(), map[int]int{2: 1, 1: 1}},
		{GenericSMT8(), map[int]int{8: 4, 4: 2, 2: 1, 1: 1}},
	} {
		for level, want := range c.want {
			if got := c.d.LowerLevel(level); got != want {
				t.Errorf("%s.LowerLevel(%d) = %d, want %d", c.d.Name, level, got, want)
			}
		}
	}
}
