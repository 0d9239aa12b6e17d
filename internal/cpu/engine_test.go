package cpu

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/golden"
	"repro/internal/isa"
	"repro/internal/workload"
)

// engineResult captures everything observable about a run for bit-identity
// comparison between the scan and event engines.
type engineResult struct {
	wall int64
	err  string
	snap counters.Snapshot
	now  int64
}

// enginePin is the golden form of an engineResult. The equivalence tests
// compare the two engines within one commit; pinning the agreed result
// under testdata/golden/ also holds it across commits, so a change to the
// stage functions both engines share cannot move the simulation unseen.
type enginePin struct {
	Wall     int64             `json:"wall"`
	Now      int64             `json:"now"`
	Err      string            `json:"err"`
	Snapshot counters.Snapshot `json:"snapshot"`
}

func (r engineResult) pin() enginePin {
	return enginePin{Wall: r.wall, Now: r.now, Err: r.err, Snapshot: r.snap}
}

func runWithEngine(t *testing.T, eng Engine, d *arch.Desc, chips, smt int, srcs []isa.Source, maxCycles int64) engineResult {
	t.Helper()
	m, err := NewMachine(d, chips)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSMTLevel(smt); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEngine(eng); err != nil {
		t.Fatal(err)
	}
	wall, rerr := m.RunContext(context.Background(), srcs, maxCycles)
	res := engineResult{wall: wall, snap: m.Counters(), now: m.Now()}
	if rerr != nil {
		res.err = rerr.Error()
	}
	checkConservation(t, d, res.snap, rerr == nil)
	return res
}

func comparePair(t *testing.T, scan, event engineResult) {
	t.Helper()
	if scan.wall != event.wall || scan.now != event.now {
		t.Fatalf("wall/now diverge: scan %d/%d, event %d/%d", scan.wall, scan.now, event.wall, event.now)
	}
	if scan.err != event.err {
		t.Fatalf("errors diverge: scan %q, event %q", scan.err, event.err)
	}
	if !reflect.DeepEqual(scan.snap, event.snap) {
		t.Fatalf("counter snapshots diverge:\nscan:  %+v\nevent: %+v", scan.snap, event.snap)
	}
}

// skipHeavySim gates the multi-minute single-goroutine simulation tests:
// they run in the plain test stage, and skip under the race detector whose
// slowdown would blow the CI budget without exercising any concurrency
// (see race_test.go).
func skipHeavySim(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("minutes of single-goroutine simulation; covered by the non-race run")
	}
}

// TestEngineEquivalenceWorkloads pins the event engine bit-identical to the
// scan engine on workload-library benchmarks covering the idle paths:
// compute-bound (EP), memory-bound (CG), blocking locks plus timed sleeps
// (Dedup), and blocking barriers (Bodytrack). Each case runs under a cycle
// cap, so the comparison also covers deterministic mid-run interruption
// (ErrCycleLimit) — counters must match at the exact cut-off cycle.
func TestEngineEquivalenceWorkloads(t *testing.T) {
	skipHeavySim(t)
	cases := []struct {
		bench     string
		chips     int
		smt       int
		seed      uint64
		maxCycles int64
	}{
		{"EP", 1, 1, 1, 400_000},
		{"EP", 1, 2, 1, 400_000},
		{"EP", 1, 4, 1, 400_000},
		{"MG", 1, 4, 6, 400_000},
		{"CG", 1, 2, 2, 400_000},
		{"CG", 2, 2, 2, 300_000},
		{"Dedup", 1, 4, 3, 600_000},
		{"Dedup", 1, 2, 3, 600_000},
		{"Bodytrack", 1, 4, 4, 600_000},
		{"Streamcluster", 1, 4, 5, 400_000},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.bench
		pin := fmt.Sprintf("workloads_%s_chips%d_smt%d", tc.bench, tc.chips, tc.smt)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := workload.Get(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			d := arch.POWER7()
			threads := d.CoresPerChip * tc.chips * tc.smt
			mk := func() []isa.Source {
				inst, err := workload.Instantiate(spec, threads, tc.seed)
				if err != nil {
					t.Fatal(err)
				}
				return inst.Sources()
			}
			scan := runWithEngine(t, EngineScan, d, tc.chips, tc.smt, mk(), tc.maxCycles)
			event := runWithEngine(t, EngineEvent, d, tc.chips, tc.smt, mk(), tc.maxCycles)
			comparePair(t, scan, event)
			golden.Assert(t, pin, event.pin())
		})
	}
}

// TestEngineEquivalenceStreams covers the synthetic-source paths: hintless
// sources (no WakeHint), port-contending mixes, strided memory walks, and
// unpipelined dividers, to completion rather than under a cap.
func TestEngineEquivalenceStreams(t *testing.T) {
	skipHeavySim(t)
	mk := func() []isa.Source {
		return []isa.Source{
			&fixedStream{n: 20_000, class: isa.Int},
			&fixedStream{n: 15_000, class: isa.Load, step: 64, mask: 1<<22 - 1},
			&fixedStream{n: 8_000, class: isa.FPDiv, dep: 1},
			&fixedStream{n: 20_000, class: isa.FPVec, dep: 3},
			&fixedStream{n: 12_000, class: isa.Load, step: 4096},
			&fixedStream{n: 20_000, class: isa.IntMul},
		}
	}
	for _, smt := range []int{1, 2, 4} {
		scan := runWithEngine(t, EngineScan, arch.POWER7(), 1, smt, mk(), 0)
		event := runWithEngine(t, EngineEvent, arch.POWER7(), 1, smt, mk(), 0)
		comparePair(t, scan, event)
		scanN := runWithEngine(t, EngineScan, arch.Nehalem(), 1, smt%2+1, mk(), 0)
		eventN := runWithEngine(t, EngineEvent, arch.Nehalem(), 1, smt%2+1, mk(), 0)
		comparePair(t, scanN, eventN)
		golden.Assert(t, fmt.Sprintf("streams_smt%d", smt), map[string]enginePin{
			"power7": event.pin(), "nehalem": eventN.pin(),
		})
	}
}

// TestEngineEquivalenceIntervals runs the same sources across two
// back-to-back RunContext intervals, as the controller's measurement loop
// does. This pins state the snapshot alone cannot see — in particular the
// round-robin pointers the event engine fast-forwards over skipped cycles
// must land exactly where per-cycle stepping leaves them, or the second
// interval diverges.
func TestEngineEquivalenceIntervals(t *testing.T) {
	skipHeavySim(t)
	spec, err := workload.Get("Dedup")
	if err != nil {
		t.Fatal(err)
	}
	d := arch.POWER7()
	results := make([]engineResult, 0, 4)
	for _, eng := range []Engine{EngineScan, EngineEvent} {
		m, err := NewMachine(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetEngine(eng); err != nil {
			t.Fatal(err)
		}
		inst, err := workload.Instantiate(spec, m.HardwareThreads(), 7)
		if err != nil {
			t.Fatal(err)
		}
		srcs := inst.Sources()
		var prev counters.Snapshot
		for interval := 0; interval < 2; interval++ {
			wall, rerr := m.RunContext(context.Background(), srcs, 250_000)
			res := engineResult{wall: wall, snap: m.Counters(), now: m.Now()}
			if rerr != nil {
				res.err = rerr.Error()
			}
			checkConservation(t, d, res.snap.Delta(&prev), rerr == nil)
			prev = res.snap
			results = append(results, res)
		}
	}
	comparePair(t, results[0], results[2])
	comparePair(t, results[1], results[3])
	golden.Assert(t, "intervals_Dedup", []enginePin{results[2].pin(), results[3].pin()})
}

// TestEngineCancelSmoke checks both engines honor context cancellation with
// the documented error contract. (The cancellation *cycle* is wall-clock
// dependent, so only the error identity is asserted; deterministic mid-run
// interruption is covered by the cycle caps above.)
func TestEngineCancelSmoke(t *testing.T) {
	for _, eng := range []Engine{EngineScan, EngineEvent} {
		m := newP7(t, 1)
		if err := m.SetEngine(eng); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		srcs := []isa.Source{&fixedStream{n: 1 << 60, class: isa.Int}}
		_, err := m.RunContext(ctx, srcs, 0)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %d: err = %v, want ErrCanceled wrapping context.Canceled", eng, err)
		}
	}
}

// hintSource is a test source that idles with a wake hint.
type hintSource struct{ wake int64 }

func (h *hintSource) Fetch(now int64, out *isa.Inst) isa.FetchStatus { return isa.FetchIdle }
func (h *hintSource) WakeHint(now int64) int64                       { return h.wake }

// plainIdle is a hintless test source: FetchIdle with no WakeHint.
type plainIdle struct{}

func (plainIdle) Fetch(now int64, out *isa.Inst) isa.FetchStatus { return isa.FetchIdle }

// TestIdleNextHintMix pins the improved idle skip: a hintless idle source
// clamps the jump to its own readiness (the next cycle) instead of the old
// behavior, and a fetch-stalled context contributes its redirect expiry as
// a stepped-equivalent (non-frozen) event.
func TestIdleNextHintMix(t *testing.T) {
	m := newP7(t, 1)
	core := m.cores[0]
	mkCtx := func(src isa.Source) *Context {
		cc := &Context{core: core}
		cc.reset(src)
		return cc
	}
	const now, deadline = 1000, 1 << 40

	// All sleepers with hints: frozen jump to the min hint.
	a := mkCtx(&hintSource{wake: 5000})
	b := mkCtx(&hintSource{wake: 3000})
	a.sawIdleThisCycle, b.sawIdleThisCycle = true, true
	m.threadCtx = []*Context{a, b}
	if next, frozen := m.idleNext(now, deadline); next != 3000 || !frozen {
		t.Fatalf("hinted sleepers: next=%d frozen=%v, want 3000/true", next, frozen)
	}

	// A hintless idle source pins the jump to now+1 but no further.
	c := mkCtx(plainIdle{})
	c.sawIdleThisCycle = true
	m.threadCtx = []*Context{a, c}
	if next, frozen := m.idleNext(now, deadline); next != now+1 || !frozen {
		t.Fatalf("hintless mix: next=%d frozen=%v, want %d/true", next, frozen, now+1)
	}

	// A redirect-stalled context: jump to the stall expiry, stepped-equivalent.
	s := mkCtx(&fixedStream{n: 10, class: isa.Int})
	s.fetchStallUntil = now + 40
	m.threadCtx = []*Context{a, s}
	if next, frozen := m.idleNext(now, deadline); next != now+40 || frozen {
		t.Fatalf("stalled mix: next=%d frozen=%v, want %d/false", next, frozen, now+40)
	}

	// Deadline clamps the jump.
	m.threadCtx = []*Context{a}
	a.sawIdleThisCycle = true
	if next, _ := m.idleNext(now, 2000); next != 2000 {
		t.Fatalf("deadline clamp: next=%d, want 2000", next)
	}
}

// TestRunContextSteadyStateAllocs pins the steady-state run path at zero
// allocations: after a warm-up run sizes the placement slice, repeated
// RunContext calls on a pooled machine must not allocate.
func TestRunContextSteadyStateAllocs(t *testing.T) {
	m := newP7(t, 1)
	streams := []*fixedStream{
		{class: isa.Int},
		{class: isa.Load, step: 64, mask: 1<<20 - 1},
		{class: isa.FPVec, dep: 2},
		{class: isa.IntMul, dep: 1},
	}
	srcs := make([]isa.Source, len(streams))
	rearm := func() {
		for i, s := range streams {
			*s = fixedStream{n: 3000, class: s.class, dep: s.dep, step: s.step, mask: s.mask}
			srcs[i] = s
		}
	}
	run := func() {
		rearm()
		if _, err := m.RunContext(context.Background(), srcs, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: sizes threadCtx
	if avg := testing.AllocsPerRun(5, run); avg != 0 {
		t.Fatalf("steady-state RunContext allocates %.1f times per run, want 0", avg)
	}
}
