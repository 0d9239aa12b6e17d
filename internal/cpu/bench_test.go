package cpu

import (
	"context"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/workload"
)

// The benchmarks in this file are the PR's performance trajectory: each
// BenchmarkEngine cell runs the event and scan engines on identical work
// and reports simulated cycles per host second for both, plus their
// ratio. The engines alternate in benchSlice-cycle intervals rather than
// full back-to-back runs: pairing sub-second windows makes the ratio
// robust to host-speed drift (frequency scaling, noisy CI neighbors) —
// both engines see near-identical conditions and the drift that remains
// averages out over benchCap/benchSlice pairs — which is what lets
// scripts/benchgate hold every cell to a hard event/scan parity floor.
// scripts/bench.sh distills the output into BENCH_PR<n>.json.

// benchCap bounds each benchmark iteration; long enough that per-run setup
// is noise, short enough that the full grid stays in benchmark budget.
// benchSlice is the engine-alternation interval within an iteration; its
// sub-second windows set the ratio's drift resolution.
const (
	benchCap   = 2_000_000
	benchSlice = 125_000
)

// benchPair measures one cell: threads software threads of bench (0 fills
// every hardware context) on a one-chip POWER7 at the given SMT level.
func benchPair(b *testing.B, bench string, smt, threads int) {
	b.Helper()
	spec, err := workload.Get(bench)
	if err != nil {
		b.Fatal(err)
	}
	d := arch.POWER7()
	machines := [2]*Machine{}
	for i, eng := range []Engine{EngineEvent, EngineScan} {
		m, err := NewMachine(d, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetEngine(eng); err != nil {
			b.Fatal(err)
		}
		if err := m.SetSMTLevel(smt); err != nil {
			b.Fatal(err)
		}
		machines[i] = m
	}
	ctx := context.Background()
	var cycles [2]int64
	var host [2]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var srcs [2][]isa.Source
		for e, m := range machines {
			n := threads
			if n == 0 {
				n = m.HardwareThreads()
			}
			inst, err := workload.Instantiate(spec, n, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			srcs[e] = inst.Sources()
		}
		b.StartTimer()
		// Alternate the engines every benchSlice cycles (the sources carry
		// the workload position across intervals), so paired measurement
		// windows sit adjacent in host time.
		for done := int64(0); done < benchCap; done += benchSlice {
			for e, m := range machines {
				t0 := time.Now()
				wall, err := m.RunContext(ctx, srcs[e], benchSlice)
				host[e] += time.Since(t0)
				if err != nil && err != ErrCycleLimit {
					b.Fatal(err)
				}
				cycles[e] += wall
			}
		}
	}
	b.StopTimer()
	evRate, scRate := 0.0, 0.0
	if s := host[0].Seconds(); s > 0 {
		evRate = float64(cycles[0]) / 1e6 / s
	}
	if s := host[1].Seconds(); s > 0 {
		scRate = float64(cycles[1]) / 1e6 / s
	}
	b.ReportMetric(evRate, "Mcycles/s")
	b.ReportMetric(scRate, "scanMcycles/s")
	if scRate > 0 {
		b.ReportMetric(evRate/scRate, "ratio")
	}
}

// BenchmarkEngine spans the workload classes the event engine must win on
// (memory-bound CG and Canneal) and must not lose badly on (compute-bound
// EP, barrier-spinning MG, lock-and-sleep-heavy Dedup), at SMT 1/2/4 on a
// full machine. The pair/<bench> cells run two threads of one workload on
// the one-chip machine at SMT4 — the co-run shape placement.Engine scores
// every workload pair with, where seven of the chip's eight cores hold no
// thread.
func BenchmarkEngine(b *testing.B) {
	for _, bench := range []string{"EP", "CG", "MG", "Canneal", "Dedup"} {
		b.Run(bench, func(b *testing.B) {
			for _, smt := range []int{1, 2, 4} {
				b.Run("smt"+string(rune('0'+smt)), func(b *testing.B) {
					benchPair(b, bench, smt, 0)
				})
			}
		})
	}
	b.Run("pair", func(b *testing.B) {
		for _, bench := range []string{"CG", "EP", "Dedup", "Canneal"} {
			b.Run(bench, func(b *testing.B) {
				benchPair(b, bench, 4, 2)
			})
		}
	})
}

// BenchmarkSteadyState is the allocation gate: the pooled, warmed-up run
// path on a synthetic port-contending mix. scripts/benchgate fails CI if
// allocs/op ever leaves zero.
func BenchmarkSteadyState(b *testing.B) {
	m, err := NewMachine(arch.POWER7(), 1)
	if err != nil {
		b.Fatal(err)
	}
	streams := []*fixedStream{
		{class: isa.Int},
		{class: isa.Load, step: 64, mask: 1<<20 - 1},
		{class: isa.FPVec, dep: 2},
		{class: isa.IntMul, dep: 1},
	}
	srcs := make([]isa.Source, len(streams))
	rearm := func() {
		for i, s := range streams {
			*s = fixedStream{n: 20_000, class: s.class, dep: s.dep, step: s.step, mask: s.mask}
			srcs[i] = s
		}
	}
	ctx := context.Background()
	rearm()
	if _, err := m.RunContext(ctx, srcs, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		rearm()
		wall, err := m.RunContext(ctx, srcs, 0)
		if err != nil {
			b.Fatal(err)
		}
		cycles += wall
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cycles)/1e6/sec, "Mcycles/s")
	}
}
