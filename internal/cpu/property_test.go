package cpu

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/golden"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// randomSpec builds a small random-but-valid workload spec.
func randomSpec(rng *xrand.Rand) *workload.Spec {
	s := &workload.Spec{
		Name: "prop",
		Mix: workload.Mix{
			Load:   0.1 + rng.Float64()*0.3,
			Store:  rng.Float64() * 0.2,
			Branch: 0.05 + rng.Float64()*0.2,
			Int:    0.1 + rng.Float64()*0.4,
			FPVec:  rng.Float64() * 0.4,
		},
		Chains:        1 + rng.Intn(8),
		ChainFrac:     rng.Float64(),
		CrossDep:      rng.Float64() * 0.3,
		WorkingSetKB:  1 << uint(rng.Intn(10)),
		BranchEntropy: rng.Float64(),
		ColdFrac:      rng.Float64() * 0.3,
		TotalWork:     int64(20_000 + rng.Intn(60_000)),
		IterLen:       500 + rng.Intn(1500),
	}
	if rng.Bernoulli(0.4) {
		s.LockEvery = 1 + rng.Intn(4)
		s.CritLen = 20 + rng.Intn(100)
		if rng.Bernoulli(0.5) {
			s.LockKind = sched.BlockingLock
		}
	}
	if rng.Bernoulli(0.4) {
		s.BarrierEvery = 1 + rng.Intn(8)
		if rng.Bernoulli(0.5) {
			s.BarrierKind = sched.BlockingLock
		}
	}
	if rng.Bernoulli(0.2) {
		s.SleepEvery = 1 + rng.Intn(4)
		s.SleepCycles = int64(500 + rng.Intn(5000))
	}
	if rng.Bernoulli(0.2) {
		s.SerialEvery = 2 + rng.Intn(6)
		s.SerialLen = 100 + rng.Intn(400)
	}
	return s
}

// computeOnly strips every synchronisation feature from s and lengthens
// it, producing the long homogeneous compute runs that keep the event
// engine inside macro-stepped spans almost permanently.
func computeOnly(s *workload.Spec, rng *xrand.Rand) {
	s.LockEvery, s.CritLen = 0, 0
	s.BarrierEvery = 0
	s.SerialEvery, s.SerialLen = 0, 0
	s.SleepEvery, s.SleepCycles = 0, 0
	s.TotalWork = int64(60_000 + rng.Intn(60_000))
}

// librarySpec returns the named workload-library spec.
func librarySpec(t *testing.T, name string) *workload.Spec {
	t.Helper()
	spec, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// instSources instantiates spec for the given thread count and seed.
func instSources(t *testing.T, spec *workload.Spec, threads int, seed uint64) []isa.Source {
	t.Helper()
	inst, err := workload.Instantiate(spec, threads, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Sources()
}

// TestRandomWorkloadInvariants runs randomised workloads end-to-end and
// checks the accounting invariants that every run must satisfy:
//
//   - the run terminates (no deadlock between locks, barriers and sleeps);
//   - retired instructions equal useful + spin instructions;
//   - no thread is busy longer than the wall clock;
//   - cache accesses balance across the level counters;
//   - the run is deterministic.
func TestRandomWorkloadInvariants(t *testing.T) {
	rng := xrand.New(20260705)
	for trial := 0; trial < 12; trial++ {
		spec := randomSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid spec: %v", trial, err)
		}
		level := []int{1, 2, 4}[rng.Intn(3)]

		run := func() (int64, uint64, int64, int64) {
			m, err := NewMachine(arch.POWER7(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetSMTLevel(level); err != nil {
				t.Fatal(err)
			}
			inst, err := workload.Instantiate(spec, m.HardwareThreads(), uint64(trial))
			if err != nil {
				t.Fatal(err)
			}
			wall, err := m.RunContext(context.Background(), inst.Sources(), 80_000_000)
			if err != nil {
				t.Fatalf("trial %d (SMT%d): %v", trial, level, err)
			}
			s := m.Counters()
			for i, b := range s.ThreadBusy {
				if b > wall+1 {
					t.Fatalf("trial %d: thread %d busy %d > wall %d", trial, i, b, wall)
				}
			}
			if s.BranchMispredicts > s.BranchLookups {
				t.Fatalf("trial %d: mispredicts exceed lookups", trial)
			}
			return wall, s.Retired, inst.UsefulInstrs(), inst.SpinInstrs()
		}

		wall1, retired1, useful, spin := run()
		if retired1 != uint64(useful+spin) {
			t.Fatalf("trial %d: retired %d != useful %d + spin %d",
				trial, retired1, useful, spin)
		}
		wall2, retired2, _, _ := run()
		if wall1 != wall2 || retired1 != retired2 {
			t.Fatalf("trial %d: non-deterministic (%d,%d) vs (%d,%d)",
				trial, wall1, retired1, wall2, retired2)
		}
	}
}

// TestMacroStepMatchesScanReferee drives the macro-stepping fast path with
// randomised workloads and pins it bit-identical to the scan referee.
// Even-numbered trials strip every synchronisation feature, producing the
// long homogeneous compute runs that keep the engine inside bulk-retired
// spans almost permanently; odd trials keep randomSpec's full feature mix
// so entry/exit boundaries (locks, barriers, sleeps, drains) are crossed
// constantly. Every trial runs under a random cycle cap, so the cut
// regularly lands inside a would-be bulk-retired run — the deadline clamp
// in macroSpan must reproduce the scan engine's exact partial counters.
func TestMacroStepMatchesScanReferee(t *testing.T) {
	skipHeavySim(t)
	rng := xrand.New(20260809)
	for trial := 0; trial < 10; trial++ {
		spec := randomSpec(rng)
		if trial%2 == 0 {
			computeOnly(spec, rng)
		}
		smt := []int{1, 2, 4}[rng.Intn(3)]
		seed := uint64(trial)
		maxCycles := int64(2_000 + rng.Intn(150_000))
		d := arch.POWER7()
		threads := d.CoresPerChip * smt
		mk := func() []isa.Source {
			inst, err := workload.Instantiate(spec, threads, seed)
			if err != nil {
				t.Fatal(err)
			}
			return inst.Sources()
		}
		scan := runWithEngine(t, EngineScan, d, 1, smt, mk(), maxCycles)
		event := runWithEngine(t, EngineEvent, d, 1, smt, mk(), maxCycles)
		comparePair(t, scan, event)
	}
}

// TestPartialMachineMatchesScanReferee pins the event engine's live-core
// list on machines that are never full: random thread counts from 1 to
// HardwareThreads-1 at SMT 1, 2 and 4 leave whole cores without a thread
// from the first cycle, so those cores never enter the list and their
// round-robin rotation is credited only by the exit settle. Trials
// alternate compute-only and fully synchronised specs and run under random
// cycle caps, as in TestMacroStepMatchesScanReferee.
func TestPartialMachineMatchesScanReferee(t *testing.T) {
	skipHeavySim(t)
	rng := xrand.New(20261017)
	d := arch.POWER7()
	for trial := 0; trial < 12; trial++ {
		spec := randomSpec(rng)
		if trial%2 == 0 {
			computeOnly(spec, rng)
		}
		smt := []int{1, 2, 4}[trial%3]
		threads := 1 + rng.Intn(d.CoresPerChip*smt-1)
		seed := uint64(trial)
		maxCycles := int64(2_000 + rng.Intn(150_000))
		mk := func() []isa.Source {
			inst, err := workload.Instantiate(spec, threads, seed)
			if err != nil {
				t.Fatal(err)
			}
			return inst.Sources()
		}
		scan := runWithEngine(t, EngineScan, d, 1, smt, mk(), maxCycles)
		event := runWithEngine(t, EngineEvent, d, 1, smt, mk(), maxCycles)
		comparePair(t, scan, event)
		golden.Assert(t, fmt.Sprintf("partial_trial%02d", trial), event.pin())
	}
}

// TestStaggeredFinishMatchesScanReferee pins the live-list compaction:
// fixed streams of very different lengths finish at different cycles, so
// cores leave the list one by one mid-run while the others keep stepping —
// macro-stepping when the survivors are compute streams (a fixed stream
// guarantees its whole remaining run), event-skipping when they are memory
// walks. Odd trials cut the run with a random cycle cap.
func TestStaggeredFinishMatchesScanReferee(t *testing.T) {
	skipHeavySim(t)
	rng := xrand.New(20261018)
	d := arch.POWER7()
	classes := []isa.Class{isa.Int, isa.Load, isa.FPVec, isa.IntMul, isa.FPDiv}
	for trial := 0; trial < 9; trial++ {
		smt := []int{1, 2, 4}[trial%3]
		streams := make([]fixedStream, 1+rng.Intn(d.CoresPerChip*smt))
		for i := range streams {
			s := fixedStream{
				n:     int64(300 + rng.Intn(40_000)),
				class: classes[rng.Intn(len(classes))],
				dep:   uint8(rng.Intn(4)),
			}
			if s.class == isa.Load {
				s.step, s.mask = 64, 1<<uint(12+rng.Intn(10))-1
			}
			streams[i] = s
		}
		mk := func() []isa.Source {
			srcs := make([]isa.Source, len(streams))
			for i := range streams {
				s := streams[i]
				srcs[i] = &s
			}
			return srcs
		}
		maxCycles := int64(0)
		if trial%2 == 1 {
			maxCycles = int64(1_000 + rng.Intn(40_000))
		}
		scan := runWithEngine(t, EngineScan, d, 1, smt, mk(), maxCycles)
		event := runWithEngine(t, EngineEvent, d, 1, smt, mk(), maxCycles)
		comparePair(t, scan, event)
	}
}

// TestPairShapeMatchesScan runs placement's pair-scoring shape — each pair
// on a fresh one-chip machine, both threads on core 0 at SMT4, a
// 200k-cycle cap — under both engines and pins each pair's wall and clock
// cycles, counter snapshot and error to the scan referee. Seven of the
// chip's eight cores hold no thread.
func TestPairShapeMatchesScan(t *testing.T) {
	pairs := [][2]string{{"CG", "EP"}, {"Dedup", "Dedup"}, {"Canneal", "MG"}, {"EP", "EP"}}
	for g, p := range pairs {
		t.Run(p[0]+"_"+p[1], func(t *testing.T) {
			// As placement.Engine builds them: a self pair is one two-thread
			// instantiation, a mixed pair one thread of each workload.
			mk := func() []isa.Source {
				a, b := librarySpec(t, p[0]), librarySpec(t, p[1])
				if p[0] == p[1] {
					return instSources(t, a, 2, uint64(g))
				}
				return append(instSources(t, a, 1, uint64(2*g)), instSources(t, b, 1, uint64(2*g+1))...)
			}
			scan := runWithEngine(t, EngineScan, arch.POWER7(), 1, 4, mk(), 200_000)
			event := runWithEngine(t, EngineEvent, arch.POWER7(), 1, 4, mk(), 200_000)
			comparePair(t, scan, event)
			golden.Assert(t, fmt.Sprintf("pair_shape_%s_%s", p[0], p[1]), event.pin())
		})
	}
}

// TestBackToBackRunsMatchScanReferee runs several RunContext calls on one
// machine without Reset under both engines and compares after every run —
// the controller's measurement-interval pattern. Round-robin pointers
// survive between runs and no snapshot shows them, so a pointer a run
// leaves in the wrong place surfaces only in the next run's counters.
//
// Both cases run at SMT4, where all four values of each pointer order the
// contexts differently, and cut runs at cycle counts that are not multiples
// of four, so a mis-credited rotation cannot cancel out.
//
//   - few_then_full: the first run populates two cores and leaves the rest
//     off the live list (their rotation credited only by the exit settle);
//     the second fills every context.
//   - sleep_with_finished: four short streams finish early on core 1 while
//     four sleep-heavy threads on core 0 all sleep at once, so the
//     pure-sleep freeze fires with finished and never-populated cores
//     present; a full second run then exposes any pointer the freeze
//     rotated.
func TestBackToBackRunsMatchScanReferee(t *testing.T) {
	skipHeavySim(t)
	sleepy := *librarySpec(t, "EP")
	sleepy.Name = "sleepy"
	sleepy.TotalWork = 40_000
	sleepy.IterLen = 400
	sleepy.SleepEvery, sleepy.SleepCycles = 1, 6_000
	type run struct {
		srcs      func(t *testing.T) []isa.Source
		maxCycles int64
	}
	cases := []struct {
		name string
		runs []run
	}{
		{"few_then_full", []run{
			{func(t *testing.T) []isa.Source { return instSources(t, librarySpec(t, "CG"), 5, 1) }, 60_001},
			{func(t *testing.T) []isa.Source { return instSources(t, librarySpec(t, "EP"), 32, 2) }, 40_003},
		}},
		{"sleep_with_finished", []run{
			{func(t *testing.T) []isa.Source {
				srcs := instSources(t, &sleepy, 4, 3)
				for i := 0; i < 4; i++ {
					srcs = append(srcs, &fixedStream{n: int64(200 + 300*i), class: isa.Int, dep: 1})
				}
				return srcs
			}, 0},
			{func(t *testing.T) []isa.Source { return instSources(t, librarySpec(t, "MG"), 32, 4) }, 40_003},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var machines [2]*Machine
			for e, eng := range []Engine{EngineScan, EngineEvent} {
				m := newP7(t, 1)
				if err := m.SetSMTLevel(4); err != nil {
					t.Fatal(err)
				}
				if err := m.SetEngine(eng); err != nil {
					t.Fatal(err)
				}
				machines[e] = m
			}
			for _, r := range tc.runs {
				var res [2]engineResult
				for e, m := range machines {
					wall, err := m.RunContext(context.Background(), r.srcs(t), r.maxCycles)
					res[e] = engineResult{wall: wall, snap: m.Counters(), now: m.Now()}
					if err != nil {
						res[e].err = err.Error()
					}
				}
				comparePair(t, res[0], res[1])
			}
		})
	}
}

// TestRandomTracesReplayIdentically records random spec streams through the
// machine twice via fresh instantiations, confirming end-to-end stream
// stability (the foundation the Matrix cache relies on).
func TestRandomTracesReplayIdentically(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 6; trial++ {
		spec := randomSpec(rng)
		spec.LockEvery = 0 // single-thread streams: no peers to release locks
		spec.BarrierEvery = 0
		spec.SerialEvery = 0
		a, err := workload.Instantiate(spec, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := workload.Instantiate(spec, 1, 5)
		var x, y isa.Inst
		for i := 0; i < 5000; i++ {
			sa := a.Sources()[0].Fetch(int64(i), &x)
			sb := b.Sources()[0].Fetch(int64(i), &y)
			if sa != sb || x != y {
				t.Fatalf("trial %d: streams diverge at %d", trial, i)
			}
			if sa == isa.FetchDone {
				break
			}
		}
	}
}
