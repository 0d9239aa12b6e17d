package workload

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// collectMem gathers n memory addresses from a spec's generator.
func collectMem(t *testing.T, spec *Spec, n int) []isa.Inst {
	t.Helper()
	inst, err := Instantiate(spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := inst.Sources()[0]
	var out []isa.Inst
	var in isa.Inst
	for i := 0; len(out) < n && i < 50*n; i++ {
		if src.Fetch(int64(i), &in) != isa.FetchOK {
			break
		}
		if in.Class.IsMemory() {
			out = append(out, in)
		}
	}
	return out
}

func memSpec(mut func(*Spec)) *Spec {
	s := &Spec{
		Name: "gen-test", Mix: Mix{Load: 0.5, Store: 0.5},
		Chains: 4, WorkingSetKB: 1024,
		TotalWork: 10_000_000, IterLen: 10_000,
	}
	if mut != nil {
		mut(s)
	}
	return s
}

func TestStridedAccessIsSequential(t *testing.T) {
	spec := memSpec(func(s *Spec) { s.StrideBytes = 8 })
	addrs := collectMem(t, spec, 1000)
	for i := 1; i < len(addrs); i++ {
		if addrs[i].Addr != addrs[i-1].Addr+8 &&
			addrs[i].Addr != privRegionBase { // wraparound
			t.Fatalf("access %d: %#x does not follow %#x", i, addrs[i].Addr, addrs[i-1].Addr)
		}
	}
}

func TestStrideWrapsAtWorkingSet(t *testing.T) {
	spec := memSpec(func(s *Spec) {
		s.WorkingSetKB = 1
		s.StrideBytes = 256
	})
	base := threadRegionBase(0)
	addrs := collectMem(t, spec, 100)
	for _, a := range addrs {
		if a.Addr < base || a.Addr >= base+1024 {
			t.Fatalf("address %#x escaped a 1 KiB working set", a.Addr)
		}
	}
}

func TestHotColdSplitRandom(t *testing.T) {
	spec := memSpec(func(s *Spec) { s.ColdFrac = 0.1 })
	base := threadRegionBase(0)
	addrs := collectMem(t, spec, 20_000)
	hot := 0
	for _, a := range addrs {
		if a.Addr < base+hotBytes {
			hot++
		}
	}
	frac := float64(hot) / float64(len(addrs))
	// ~90% of accesses should land in the hot region (plus the cold
	// accesses that happen to fall there: 8KiB/1MiB ≈ 0.8%).
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot-region fraction %.3f, want ~0.9", frac)
	}
}

func TestColdFracZeroIsUniform(t *testing.T) {
	spec := memSpec(nil)
	base := threadRegionBase(0)
	addrs := collectMem(t, spec, 20_000)
	hot := 0
	for _, a := range addrs {
		if a.Addr < base+hotBytes {
			hot++
		}
	}
	// Uniform over 1 MiB: the 8 KiB prefix holds ~0.8%.
	if frac := float64(hot) / float64(len(addrs)); frac > 0.05 {
		t.Fatalf("hot-prefix fraction %.3f for uniform access, want tiny", frac)
	}
}

func TestHotColdSplitStrided(t *testing.T) {
	// Tiled streaming: most accesses walk the hot tile, the rest stream
	// over the full set.
	spec := memSpec(func(s *Spec) {
		s.StrideBytes = 64
		s.ColdFrac = 0.2
	})
	base := threadRegionBase(0)
	addrs := collectMem(t, spec, 20_000)
	hot := 0
	for _, a := range addrs {
		if a.Addr < base+hotBytes {
			hot++
		}
	}
	frac := float64(hot) / float64(len(addrs))
	if frac < 0.72 || frac > 0.88 {
		t.Fatalf("hot-tile fraction %.3f, want ~0.8", frac)
	}
}

func TestSharedFraction(t *testing.T) {
	spec := memSpec(func(s *Spec) {
		s.SharedSetKB = 256
		s.SharedFrac = 0.3
	})
	addrs := collectMem(t, spec, 20_000)
	shared := 0
	for _, a := range addrs {
		if a.SharedAddr {
			if a.Addr < sharedRegionTag {
				t.Fatalf("shared flag on private address %#x", a.Addr)
			}
			shared++
		}
	}
	frac := float64(shared) / float64(len(addrs))
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("shared fraction %.3f, want ~0.3", frac)
	}
}

func TestBranchEntropyControlsBias(t *testing.T) {
	takenRate := func(entropy float64) float64 {
		spec := &Spec{
			Name: "br-test", Mix: Mix{Branch: 1},
			Chains: 1, WorkingSetKB: 1,
			BranchEntropy: entropy,
			TotalWork:     10_000_000, IterLen: 10_000,
		}
		inst, err := Instantiate(spec, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		src := inst.Sources()[0]
		var in isa.Inst
		// Per-site taken rates: half the sites are biased taken, half
		// not-taken; measure the average distance from 50% instead.
		dist := 0.0
		n := 0
		siteTaken := map[uint64][2]int{}
		for i := 0; i < 50_000; i++ {
			if src.Fetch(int64(i), &in) != isa.FetchOK {
				break
			}
			c := siteTaken[in.Addr]
			if in.Taken {
				c[0]++
			}
			c[1]++
			siteTaken[in.Addr] = c
		}
		for _, c := range siteTaken {
			p := float64(c[0]) / float64(c[1])
			d := p - 0.5
			if d < 0 {
				d = -d
			}
			dist += d
			n++
		}
		return dist / float64(n)
	}
	predictable := takenRate(0) // biases 0.99/0.01 → distance ~0.49
	coinflip := takenRate(1)    // biases 0.91/0.09 → distance ~0.41
	if predictable <= coinflip {
		t.Fatalf("entropy did not reduce branch bias: %.3f vs %.3f", predictable, coinflip)
	}
}

func TestChainRoundRobin(t *testing.T) {
	g := newBlockGen(memSpec(func(s *Spec) {
		s.Mix = Mix{Int: 1}
		s.Chains = 3
		s.ChainFrac = 1
	}), 0, 1)
	var in isa.Inst
	for i := 0; i < 100; i++ {
		g.Gen(&in)
		if i >= 3 && in.Dep1 != 3 {
			t.Fatalf("instruction %d: chain distance %d, want 3", i, in.Dep1)
		}
	}
}

func TestCrossDepsLinkOtherChains(t *testing.T) {
	g := newBlockGen(memSpec(func(s *Spec) {
		s.Mix = Mix{Int: 1}
		s.Chains = 4
		s.ChainFrac = 1
		s.CrossDep = 1 // always add a second operand
	}), 0, 1)
	var in isa.Inst
	crossSeen := false
	for i := 0; i < 200; i++ {
		g.Gen(&in)
		if in.Dep2 != 0 {
			crossSeen = true
			if in.Dep2 == in.Dep1 {
				t.Fatal("cross dependency points at the own chain")
			}
		}
	}
	if !crossSeen {
		t.Fatal("CrossDep=1 produced no second operands")
	}
}

func TestThreadsGetDistinctRegions(t *testing.T) {
	spec := memSpec(nil)
	inst, err := Instantiate(spec, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	for ti, th := range inst.Threads {
		base := privRegionBase + uint64(ti)*privRegionSpan
		for i := 0; i < 1000; i++ {
			var src sched.InstGen // silence unused import if removed later
			_ = src
			if th.Fetch(int64(i), &in) != isa.FetchOK {
				break
			}
			if in.Class.IsMemory() && !in.SharedAddr {
				if in.Addr < base || in.Addr >= base+privRegionSpan {
					t.Fatalf("thread %d address %#x outside its region", ti, in.Addr)
				}
			}
		}
	}
}

// checkThreshold checks that the integer draw x < xrand.Threshold(p)
// answers as Float64() < p, which is x/2^53 < p, on the 53-bit draws at
// the threshold and one either side of it.
func checkThreshold(t *testing.T, what string, p float64, k uint64) {
	t.Helper()
	if want := xrand.Threshold(p); k != want {
		t.Errorf("%s: threshold %d, want xrand.Threshold(%v) = %d", what, k, p, want)
	}
	for _, x := range []uint64{k - 1, k, k + 1} {
		if x >= 1<<53 {
			continue // k-1 below 0, or k+1 past the last draw
		}
		if got, want := x < k, float64(x)/(1<<53) < p; got != want {
			t.Errorf("%s: p %v, draw %d: integer says %v, Float64 says %v", what, p, x, got, want)
		}
	}
}

// TestDrawThresholds checks the integer thresholds against Float64() < p
// at the edges of the float range and for every probability the library
// specs draw against: the class CDF, ColdFrac, SharedFrac, ChainFrac,
// CrossDep and each branch site's taken probability.
func TestDrawThresholds(t *testing.T) {
	edges := []float64{0, 1, math.SmallestNonzeroFloat64, -0.5, 1.5}
	for _, k := range []uint64{1, 2, 3, 1 << 20, 1<<52 + 1, 1<<53 - 1} {
		p := float64(k) / (1 << 53)
		edges = append(edges, math.Nextafter(p, 0), p, math.Nextafter(p, 1))
	}
	for _, p := range edges {
		checkThreshold(t, "edge", p, xrand.Threshold(p))
	}
	for _, spec := range All() {
		tab := newGenTables(spec, 3, 1)
		checkThreshold(t, spec.Name+" ColdFrac", spec.ColdFrac, tab.coldK)
		checkThreshold(t, spec.Name+" SharedFrac", spec.SharedFrac, tab.sharedK)
		checkThreshold(t, spec.Name+" ChainFrac", spec.ChainFrac, tab.chainK)
		checkThreshold(t, spec.Name+" CrossDep", spec.CrossDep, tab.crossK)
		w := spec.Mix.weights()
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		acc := 0.0
		for c, k := range tab.classK[:isa.NumClasses-1] {
			acc += w[c] / sum
			checkThreshold(t, spec.Name+" class CDF", acc, k)
		}
		bias := 0.99 - 0.08*spec.BranchEntropy
		for i, k := range tab.takenK {
			p := bias
			if i%2 == 1 {
				p = 1 - bias
			}
			checkThreshold(t, spec.Name+" branch site", p, k)
		}
	}
}
