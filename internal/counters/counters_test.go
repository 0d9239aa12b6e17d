package counters

import (
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

func sample() Snapshot {
	s := Snapshot{
		WallCycles:  1000,
		ActiveCores: 2,
		SMTLevel:    4,
		CoreCycles:  2000,

		DispHeldCycles: 500,
		Retired:        4000,
		IssuedByPort:   []uint64{100, 200, 300, 400},

		BranchLookups:     600,
		BranchMispredicts: 60,

		ThreadBusy: []int64{900, 800, 0, 700},
		DramLines:  50, DramStall: 500,
	}
	s.RetiredByClass[isa.Load] = 1000
	s.RetiredByClass[isa.Store] = 500
	s.RetiredByClass[isa.Branch] = 500
	s.RetiredByClass[isa.Int] = 1200
	s.RetiredByClass[isa.FPVec] = 800
	s.HitsByLevel[mem.LevelL1] = 1200
	s.HitsByLevel[mem.LevelL2] = 200
	s.HitsByLevel[mem.LevelL3] = 70
	s.HitsByLevel[mem.LevelMem] = 30
	return s
}

func TestClassFraction(t *testing.T) {
	s := sample()
	if got := s.ClassFraction(isa.Load); got != 0.25 {
		t.Fatalf("load fraction %v, want 0.25", got)
	}
	if got := s.ClassFraction(isa.Load, isa.Store); got != 0.375 {
		t.Fatalf("load+store fraction %v, want 0.375", got)
	}
	var empty Snapshot
	if empty.ClassFraction(isa.Load) != 0 {
		t.Fatal("empty snapshot fraction must be 0")
	}
}

func TestPortFraction(t *testing.T) {
	s := sample()
	if got := s.PortFraction(0); got != 0.1 {
		t.Fatalf("port 0 fraction %v, want 0.1", got)
	}
	if got := s.PortFraction(2, 3); got != 0.7 {
		t.Fatalf("ports 2+3 fraction %v, want 0.7", got)
	}
	if got := s.PortFraction(99); got != 0 {
		t.Fatalf("out-of-range port fraction %v, want 0", got)
	}
}

func TestDispHeldFraction(t *testing.T) {
	s := sample()
	if got := s.DispHeldFraction(); got != 0.25 {
		t.Fatalf("disp-held %v, want 0.25", got)
	}
}

func TestScalabilityRatio(t *testing.T) {
	s := sample()
	// Busy threads: 900, 800, 700 (zero excluded) -> avg 800; 1000/800.
	if got := s.ScalabilityRatio(); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("scalability %v, want 1.25", got)
	}
}

func TestScalabilityRatioFloorsAtOne(t *testing.T) {
	s := sample()
	s.ThreadBusy = []int64{2000, 2000}
	if got := s.ScalabilityRatio(); got != 1 {
		t.Fatalf("scalability %v, want clamped 1", got)
	}
}

func TestIPCAndCPI(t *testing.T) {
	s := sample()
	if got := s.IPC(); got != 4 {
		t.Fatalf("IPC %v, want 4", got)
	}
	// CPI = (900+800+0+700)/4000 = 0.6.
	if got := s.CPI(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("CPI %v, want 0.6", got)
	}
}

func TestMPKI(t *testing.T) {
	s := sample()
	// Beyond L1: 200+70+30 = 300 misses per 4000 instructions -> 75.
	if got := s.MissesPerKilo(mem.LevelL1); got != 75 {
		t.Fatalf("L1 MPKI %v, want 75", got)
	}
	if got := s.MissesPerKilo(mem.LevelL3); got != 7.5 {
		t.Fatalf("L3 MPKI %v, want 7.5", got)
	}
}

func TestBranchMPKI(t *testing.T) {
	s := sample()
	if got := s.BranchMPKI(); got != 15 {
		t.Fatalf("branch MPKI %v, want 15", got)
	}
}

func TestDelta(t *testing.T) {
	prev := sample()
	cur := sample()
	cur.WallCycles = 3000
	cur.Retired = 9000
	cur.RetiredByClass[isa.Load] = 2500
	cur.IssuedByPort = []uint64{150, 250, 350, 450}
	cur.ThreadBusy = []int64{1900, 1700, 100, 1500}
	cur.HitsByLevel[mem.LevelMem] = 90
	cur.BranchMispredicts = 100

	d := cur.Delta(&prev)
	if d.WallCycles != 2000 {
		t.Fatalf("wall delta %d", d.WallCycles)
	}
	if d.Retired != 5000 {
		t.Fatalf("retired delta %d", d.Retired)
	}
	if d.RetiredByClass[isa.Load] != 1500 {
		t.Fatalf("load delta %d", d.RetiredByClass[isa.Load])
	}
	if d.IssuedByPort[3] != 50 {
		t.Fatalf("port 3 delta %d", d.IssuedByPort[3])
	}
	if d.ThreadBusy[0] != 1000 {
		t.Fatalf("thread busy delta %d", d.ThreadBusy[0])
	}
	if d.HitsByLevel[mem.LevelMem] != 60 {
		t.Fatalf("mem hits delta %d", d.HitsByLevel[mem.LevelMem])
	}
	if d.BranchMispredicts != 40 {
		t.Fatalf("mispredict delta %d", d.BranchMispredicts)
	}
	// Delta must not mutate its inputs.
	if cur.IssuedByPort[0] != 150 || prev.IssuedByPort[0] != 100 {
		t.Fatal("Delta mutated an input snapshot")
	}
}

func TestDeltaShorterPrev(t *testing.T) {
	cur := sample()
	prev := Snapshot{IssuedByPort: []uint64{10}, ThreadBusy: []int64{100}}
	d := cur.Delta(&prev)
	if d.IssuedByPort[0] != 90 || d.IssuedByPort[1] != 200 {
		t.Fatalf("short-prev port deltas %v", d.IssuedByPort[:2])
	}
	if d.ThreadBusy[0] != 800 || d.ThreadBusy[1] != 800 {
		t.Fatalf("short-prev busy deltas %v", d.ThreadBusy[:2])
	}
}

func TestStringContainsKeyFields(t *testing.T) {
	s := sample()
	out := s.String()
	for _, want := range []string{"smt=4", "retired=4000", "dispatch-held", "L1 MPKI", "scalability"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestZeroSnapshotSafe(t *testing.T) {
	var s Snapshot
	// No division by zero anywhere.
	_ = s.IPC()
	_ = s.CPI()
	_ = s.DispHeldFraction()
	_ = s.ScalabilityRatio()
	_ = s.MissesPerKilo(mem.LevelL1)
	_ = s.BranchMPKI()
	_ = s.PortFraction(0)
	_ = s.String()
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	a, b := sample(), sample()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical snapshots produced different fingerprints")
	}
	// Every scalar perturbation must change the identity.
	muts := []func(*Snapshot){
		func(s *Snapshot) { s.WallCycles++ },
		func(s *Snapshot) { s.SMTLevel++ },
		func(s *Snapshot) { s.DispHeldCycles++ },
		func(s *Snapshot) { s.Retired++ },
		func(s *Snapshot) { s.RetiredByClass[0]++ },
		func(s *Snapshot) { s.IssuedByPort[0]++ },
		func(s *Snapshot) { s.HitsByLevel[0]++ },
		func(s *Snapshot) { s.BranchMispredicts++ },
		func(s *Snapshot) { s.ThreadBusy[0]++ },
		func(s *Snapshot) { s.DramStall++ },
	}
	for i, mut := range muts {
		m := sample()
		mut(&m)
		if m.Fingerprint() == a.Fingerprint() {
			t.Errorf("mutation %d did not change the fingerprint", i)
		}
	}
}

func TestFingerprintSliceLayoutUnambiguous(t *testing.T) {
	// A trailing zero port must not alias the shorter snapshot: the canonical
	// form length-prefixes slices.
	a := Snapshot{IssuedByPort: []uint64{1}}
	b := Snapshot{IssuedByPort: []uint64{1, 0}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("slice length not part of the canonical identity")
	}
	var zero Snapshot
	empty := Snapshot{IssuedByPort: []uint64{}, ThreadBusy: []int64{}}
	if zero.Fingerprint() != empty.Fingerprint() {
		t.Fatal("nil and empty slices must serialise identically")
	}
}
