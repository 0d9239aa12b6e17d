package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/sched"
)

func TestLibraryAllValid(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestLibraryCoversPaperTableI(t *testing.T) {
	// Every benchmark named in the paper's Table I must exist.
	tableI := []string{
		"IS", "BT", "LU", "CG", "FT", "MG", "EP",
		"Blackscholes", "Bodytrack", "Canneal", "Dedup", "Facesim",
		"Ferret", "Fluidanimate", "Freqmine", "Raytrace", "Streamcluster",
		"Swaptions", "Vips", "x264", "Stream", "SSCA2", "SPECjbb",
		"SPECjbb_contention", "Daytrader",
		"Ammp", "Applu", "Apsi", "Equake", "Fma3d", "Gafort", "Mgrid",
		"Swim", "Wupwise",
	}
	for _, name := range tableI {
		if _, err := Get(name); err != nil {
			t.Errorf("Table I benchmark missing: %v", err)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("NotABenchmark"); err == nil {
		t.Fatal("Get of unknown benchmark did not fail")
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate benchmark name %q", n)
		}
		seen[n] = true
	}
}

func TestMixNormalized(t *testing.T) {
	m := Mix{Load: 2, Store: 2, Branch: 2, Int: 2, FPVec: 2}
	n := m.Normalized()
	sum := n.Load + n.Store + n.Branch + n.Int + n.IntMul + n.FPVec + n.FPDiv
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("normalized mix sums to %v", sum)
	}
	if n.Load != 0.2 {
		t.Fatalf("normalized load %v, want 0.2", n.Load)
	}
}

func TestInstantiateDeterministic(t *testing.T) {
	spec, err := Get("EP")
	if err != nil {
		t.Fatal(err)
	}
	collect := func() []isa.Inst {
		inst, err := Instantiate(spec, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		var out []isa.Inst
		var in isa.Inst
		src := inst.Sources()[0]
		for i := 0; i < 5000; i++ {
			if src.Fetch(int64(i), &in) != isa.FetchOK {
				break
			}
			out = append(out, in)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSeedsChangeStreams(t *testing.T) {
	spec, _ := Get("EP")
	i1, _ := Instantiate(spec, 1, 1)
	i2, _ := Instantiate(spec, 1, 2)
	var a, b isa.Inst
	diff := false
	for i := 0; i < 1000; i++ {
		i1.Sources()[0].Fetch(int64(i), &a)
		i2.Sources()[0].Fetch(int64(i), &b)
		if a != b {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestMixMatchesSpec(t *testing.T) {
	spec, _ := Get("EP")
	inst, _ := Instantiate(spec, 1, 3)
	src := inst.Sources()[0]
	var counts [isa.NumClasses]int
	var in isa.Inst
	n := 0
	for i := 0; i < 200_000; i++ {
		if src.Fetch(int64(i), &in) != isa.FetchOK {
			break
		}
		counts[in.Class]++
		n++
	}
	norm := spec.Mix.Normalized()
	want := norm.weights()
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		got := float64(counts[c]) / float64(n)
		if want[c] == 0 && got > 0 {
			t.Fatalf("class %v has weight 0 but appeared", c)
		}
		if want[c] > 0.02 && (got < want[c]*0.9 || got > want[c]*1.1) {
			t.Fatalf("class %v frequency %.4f, want ~%.4f", c, got, want[c])
		}
	}
}

func TestDepDistancesBounded(t *testing.T) {
	for _, name := range []string{"EP", "Stream", "SSCA2"} {
		spec, _ := Get(name)
		inst, _ := Instantiate(spec, 2, 5)
		src := inst.Sources()[1]
		var in isa.Inst
		for i := 0; i < 50_000; i++ {
			if src.Fetch(int64(i), &in) != isa.FetchOK {
				break
			}
			if int(in.Dep1) > isa.MaxDepDistance || int(in.Dep2) > isa.MaxDepDistance {
				t.Fatalf("%s: dep distance out of range: %+v", name, in)
			}
		}
	}
}

func TestChainStructure(t *testing.T) {
	// With ChainFrac 1 and K chains, every instruction's Dep1 must point
	// exactly K back (after warm-up).
	spec := &Spec{
		Name: "chains-test", Mix: Mix{Int: 1},
		Chains: 4, ChainFrac: 1,
		WorkingSetKB: 1, TotalWork: 100_000, IterLen: 1000,
	}
	inst, err := Instantiate(spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := inst.Sources()[0]
	var in isa.Inst
	for i := 0; i < 10_000; i++ {
		if src.Fetch(int64(i), &in) != isa.FetchOK {
			break
		}
		if i >= 4 && in.Dep1 != 4 {
			t.Fatalf("instruction %d: dep distance %d, want 4", i, in.Dep1)
		}
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	spec := &Spec{
		Name: "addr-test", Mix: Mix{Load: 0.5, Store: 0.5},
		Chains: 1, WorkingSetKB: 64,
		SharedSetKB: 128, SharedFrac: 0.5,
		TotalWork: 50_000, IterLen: 1000,
	}
	inst, err := Instantiate(spec, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	src := inst.Sources()[2]
	privBase := threadRegionBase(2)
	var in isa.Inst
	for i := 0; i < 20_000; i++ {
		if src.Fetch(int64(i), &in) != isa.FetchOK {
			break
		}
		if !in.Class.IsMemory() {
			continue
		}
		if in.SharedAddr {
			if in.Addr < sharedRegionTag || in.Addr >= sharedRegionTag+128<<10 {
				t.Fatalf("shared address %#x out of region", in.Addr)
			}
		} else {
			if in.Addr < privBase || in.Addr >= privBase+64<<10 {
				t.Fatalf("private address %#x out of thread-2 region", in.Addr)
			}
		}
	}
}

func TestWorkSplitAcrossThreads(t *testing.T) {
	spec, _ := Get("EP")
	for _, n := range []int{1, 2, 8, 32} {
		inst, err := Instantiate(spec, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(inst.Threads) != n {
			t.Fatalf("%d threads, want %d", len(inst.Threads), n)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := func() Spec {
		return Spec{Name: "x", Mix: Mix{Int: 1}, Chains: 1,
			WorkingSetKB: 1, TotalWork: 1000, IterLen: 100}
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Mix = Mix{} },
		func(s *Spec) { s.Mix.Load = -1 },
		func(s *Spec) { s.Chains = 0 },
		func(s *Spec) { s.Chains = 33 },
		func(s *Spec) { s.ChainFrac = 1.5 },
		func(s *Spec) { s.SharedFrac = 2 },
		func(s *Spec) { s.BranchEntropy = -0.1 },
		func(s *Spec) { s.ColdFrac = 1.2 },
		func(s *Spec) { s.StrideBytes = -64 },
		func(s *Spec) { s.TotalWork = 0 },
		func(s *Spec) { s.IterLen = 0 },
		func(s *Spec) { s.LockEvery = 1 }, // CritLen missing
		func(s *Spec) { s.SerialEvery = 1 },
		func(s *Spec) { s.SleepEvery = 1 },
		func(s *Spec) { s.Mix = Mix{Load: 1}; s.WorkingSetKB = 0 },
	}
	for i, mutate := range cases {
		s := good()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d passed validation", i)
		}
	}
}

func TestInstantiateRejectsBadThreadCount(t *testing.T) {
	spec, _ := Get("EP")
	if _, err := Instantiate(spec, 0, 1); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestSerialSectionOnlyThreadZero(t *testing.T) {
	spec := &Spec{
		Name: "serial-test", Mix: Mix{Int: 1}, Chains: 1,
		WorkingSetKB: 1, TotalWork: 40_000, IterLen: 1000,
		SerialEvery: 2, SerialLen: 500,
		BarrierKind: sched.BlockingLock,
	}
	inst, err := Instantiate(spec, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Drive all threads to completion in lockstep.
	done := make([]bool, 4)
	var in isa.Inst
	remaining := 4
	for now := int64(0); remaining > 0 && now < 10_000_000; now++ {
		for ti, th := range inst.Threads {
			if done[ti] {
				continue
			}
			for k := 0; k < 4; k++ { // a few fetches per "cycle"
				st := th.Fetch(now, &in)
				if st == isa.FetchDone {
					done[ti] = true
					remaining--
					break
				}
				if st == isa.FetchIdle {
					break
				}
			}
		}
	}
	if remaining > 0 {
		t.Fatal("threads deadlocked on serial sections")
	}
	// Thread 0 does the serial work: it must have retired more useful
	// instructions than the others.
	if inst.Threads[0].UsefulInstrs <= inst.Threads[1].UsefulInstrs {
		t.Fatalf("thread 0 useful %d vs thread 1 %d; serial work missing",
			inst.Threads[0].UsefulInstrs, inst.Threads[1].UsefulInstrs)
	}
}

// Property: any library spec instantiates and its first instructions are
// well-formed for any small thread count.
func TestAllSpecsProduceValidInstructions(t *testing.T) {
	specs := All()
	if err := quick.Check(func(specIdx, threadIdx uint8, seed uint64) bool {
		spec := specs[int(specIdx)%len(specs)]
		n := int(threadIdx)%8 + 1
		inst, err := Instantiate(spec, n, seed)
		if err != nil {
			return false
		}
		src := inst.Sources()[int(threadIdx)%n]
		var in isa.Inst
		for i := 0; i < 200; i++ {
			st := src.Fetch(int64(i), &in)
			if st == isa.FetchDone {
				break
			}
			if st == isa.FetchIdle {
				continue
			}
			if !in.Class.Valid() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
