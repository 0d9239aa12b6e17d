package cpu

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Chip is one processor package: cores plus a shared L3 and a memory
// channel.
type Chip struct {
	machine *Machine
	cores   []*Core
	l3      *mem.Cache
	dram    *mem.DRAM
}

// Machine is the simulated system: one or more chips of the same
// architecture, with an SMT level that applies machine-wide (as AIX's
// smtctl does).
type Machine struct {
	desc  *arch.Desc
	chips []*Chip
	// cores lists every core flat, chip-major — the iteration order of the
	// run loops.
	cores []*Core

	smtLevel    int
	numaPenalty int
	engine      Engine

	now     int64
	running bool

	// threadCtx maps software-thread index (of the current/last run) to
	// its hardware context.
	threadCtx []*Context
	// activeCores counts the cores hosting threads in the current/last
	// run; counter fractions (dispatch-held per core cycle) are computed
	// over these, not over cores left idle by a small run.
	activeCores int

	// live is the event engine's live-core list: the cores with at least
	// one unfinished context, in cores order (engine.go). NewMachine gives
	// it room for every core, so rebuilding it never allocates.
	live []*Core
	// hotStreak counts consecutive event-engine rounds in which every live
	// core was busy, probe-free and due next cycle — the macro-stepping
	// warmup gate (engine.go). RunContext zeroes it, so each run warms up
	// from zero.
	hotStreak int
}

// DefaultNUMAPenalty is the extra latency, in cycles, of a DRAM access homed
// on a remote chip.
const DefaultNUMAPenalty = 90

// NewMachine builds a machine with the given architecture and chip count,
// starting at the architecture's deepest SMT level (the hardware default the
// paper notes).
func NewMachine(d *arch.Desc, numChips int) (*Machine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if numChips <= 0 {
		return nil, errors.New("cpu: non-positive chip count")
	}
	m := &Machine{desc: d, numaPenalty: DefaultNUMAPenalty}
	for ci := 0; ci < numChips; ci++ {
		chip := &Chip{
			machine: m,
			l3:      mem.NewCache(d.Mem.L3Size, d.Mem.L3Ways, d.Mem.LineSize),
			dram:    mem.NewDRAM(d.Mem.MemLat, d.Mem.MemCyclesPerLine, d.Mem.MemMaxQueue),
		}
		for k := 0; k < d.CoresPerChip; k++ {
			core := newCore(d, chip)
			chip.cores = append(chip.cores, core)
			m.cores = append(m.cores, core)
		}
		m.chips = append(m.chips, chip)
	}
	// Presize the placement map to the deepest configuration so the run
	// path never allocates, not even on a machine's first run.
	m.threadCtx = make([]*Context, 0, len(m.cores)*d.MaxSMT)
	m.live = make([]*Core, 0, len(m.cores))
	if err := m.SetSMTLevel(d.MaxSMT); err != nil {
		return nil, err
	}
	return m, nil
}

// Arch returns the machine's architecture description.
func (m *Machine) Arch() *arch.Desc { return m.desc }

// NumChips returns the chip count.
func (m *Machine) NumChips() int { return len(m.chips) }

// NumCores returns the total core count.
func (m *Machine) NumCores() int { return len(m.chips) * m.desc.CoresPerChip }

// SMTLevel returns the current SMT level.
func (m *Machine) SMTLevel() int { return m.smtLevel }

// HardwareThreads returns the number of hardware contexts available at the
// current SMT level — the thread count the paper's experiments use for the
// software side.
func (m *Machine) HardwareThreads() int { return m.NumCores() * m.smtLevel }

// SetSMTLevel reconfigures every core to the given SMT level. Like AIX
// smtctl, it acts at a quiescent point: it fails if a run is in progress.
func (m *Machine) SetSMTLevel(level int) error {
	if m.running {
		return errors.New("cpu: cannot change SMT level while a run is in progress")
	}
	if !m.desc.SupportsSMT(level) {
		return fmt.Errorf("cpu: architecture %s does not expose SMT%d", m.desc.Name, level)
	}
	m.smtLevel = level
	for _, chip := range m.chips {
		for _, core := range chip.cores {
			core.setSMT(level)
		}
	}
	return nil
}

// Engine selects the cycle-advancement strategy of RunContext. Both
// engines simulate bit-identically (see engine.go); the scan engine is kept
// as the reference implementation the equivalence tests compare against.
type Engine uint8

const (
	// EngineEvent steps only cores with a due event, skipping provably
	// idle stretches per core. The default.
	EngineEvent Engine = iota
	// EngineScan steps every core on every cycle — the original engine.
	EngineScan
)

// SetEngine switches the cycle-advancement strategy. Like SetSMTLevel it
// acts at a quiescent point and fails while a run is in progress.
func (m *Machine) SetEngine(e Engine) error {
	if m.running {
		return errors.New("cpu: cannot change engine while a run is in progress")
	}
	if e != EngineEvent && e != EngineScan {
		return fmt.Errorf("cpu: unknown engine %d", e)
	}
	m.engine = e
	return nil
}

// Engine returns the current cycle-advancement strategy.
func (m *Machine) Engine() Engine { return m.engine }

// Reset clears all microarchitectural state (caches, predictors, DRAM row
// buffers), counters, and the clock. Placement and SMT level survive.
func (m *Machine) Reset() {
	m.now = 0
	m.threadCtx = m.threadCtx[:0]
	m.activeCores = 0
	for _, chip := range m.chips {
		chip.l3.Reset()
		chip.dram.Reset()
		for _, core := range chip.cores {
			core.resetState()
			core.used = 0
			for _, ctx := range core.contexts {
				ctx.reset(nil)
				ctx.busyCycles = 0
			}
		}
	}
}

// Waker is an optional isa.Source extension: a sleeping source reports the
// earliest cycle at which it could have work again, letting the simulator
// skip fully idle stretches without losing determinism.
type Waker interface {
	WakeHint(now int64) int64
}

// ExactWaker is an optional Waker extension for sources whose idle state
// can be probed without observable effect. When ExactIdle reports true, the
// source guarantees that, until the cycle WakeHint returns, every Fetch
// probe returns FetchIdle and changes nothing observable — probing it on
// cycle N or not probing it at all is indistinguishable — and that its
// WakeHint only moves through another thread's progress (a lock grant),
// never below the granting cycle. The event engine then skips the per-cycle
// re-probe of invariant 2 (engine.go) and re-reads the hint once per
// scheduling round instead, which is what lets blocking-lock-heavy
// workloads (Dedup) fast-forward past their wait stretches.
//
// A source whose wake latency is counted from the probing cycle (a sleeping
// barrier wait in sched: the waker's arrival is observed by the next probe,
// and WakeLatency starts there) is probe-SENSITIVE and must report false —
// the engine keeps the 1-cycle pinning for it.
type ExactWaker interface {
	Waker
	ExactIdle() bool
}

// ComputeRunner is an optional isa.Source extension for macro-stepping
// (engine.go): ComputeRun returns the number of successive Fetch calls the
// source GUARANTEES will return FetchOK from its current state, regardless
// of the cycle values passed — no FetchIdle, no FetchDone, no dependence on
// other threads' progress within that run. Zero means no guarantee. The
// event engine uses the machine-wide minimum run to bulk-step a stretch of
// cycles with the per-cycle event bookkeeping elided; soundness of that
// bulk accounting rests entirely on this guarantee, so implementations must
// be conservative (stop counting at any lock, barrier, sleep or
// end-of-work boundary whose outcome depends on runtime state).
type ComputeRunner interface {
	ComputeRun() int64
}

// ErrCycleLimit is returned by RunContext when maxCycles elapses before every
// software thread finishes.
var ErrCycleLimit = errors.New("cpu: cycle limit reached before all threads finished")

// ErrCanceled wraps the context error when a run is interrupted; the
// machine's counters still reflect everything simulated up to the
// interruption, so partial results remain observable.
var ErrCanceled = errors.New("cpu: run canceled")

// ctxCheckInterval is how many simulated cycles pass between context-done
// polls during RunContext. Polling is off the hot path: one non-blocking
// select every 16k cycles costs well under 0.1% of run time.
const ctxCheckInterval = 1 << 14

// RunContext places the given software-thread sources onto the machine's
// active hardware contexts (thread i on context i, contexts enumerated
// core-major across chips — the OS-affinity placement the paper's
// experiments use) and simulates until all sources report done. It returns
// the wall-clock cycle count of the run.
//
// The number of sources must not exceed the active hardware thread count.
// Microarchitectural state is NOT reset: successive runs see warm caches,
// as successive measurement intervals do on real hardware. Counters
// accumulate; use Counters before and after and Delta for interval numbers.
//
// Cancellation is cooperative: the simulation polls ctx every
// ctxCheckInterval simulated cycles and, when ctx is done, returns the
// cycles simulated so far and an error wrapping both ErrCanceled and
// ctx.Err() (so errors.Is works with either). Cancellation does not
// perturb the simulation itself: a run that completes before the deadline
// is bit-identical to one executed without a context.
func (m *Machine) RunContext(ctx context.Context, sources []isa.Source, maxCycles int64) (int64, error) {
	hw := m.HardwareThreads()
	if len(sources) > hw {
		return 0, fmt.Errorf("cpu: %d sources exceed %d hardware threads", len(sources), hw)
	}
	if len(sources) == 0 {
		return 0, errors.New("cpu: no sources")
	}
	if maxCycles <= 0 {
		maxCycles = 1 << 40
	}
	m.running = true
	defer func() { m.running = false }()

	// Placement: thread i → active context i, core-major. The mapping
	// slice is reused across runs so the steady-state path allocates
	// nothing.
	if cap(m.threadCtx) < len(sources) {
		m.threadCtx = make([]*Context, len(sources))
	} else {
		m.threadCtx = m.threadCtx[:len(sources)]
	}
	m.activeCores = (len(sources) + m.smtLevel - 1) / m.smtLevel
	idx := 0
	for _, core := range m.cores {
		core.used = 0
		for ci := 0; ci < core.active; ci++ {
			cc := core.contexts[ci]
			if idx < len(sources) {
				cc.reset(sources[idx])
				m.threadCtx[idx] = cc
				idx++
				core.used++
			} else {
				cc.reset(nil)
			}
		}
		// Contexts beyond the SMT level hold no thread.
		for ci := core.active; ci < len(core.contexts); ci++ {
			core.contexts[ci].reset(nil)
		}
	}

	deadline := m.now + maxCycles
	m.hotStreak = 0
	if m.engine == EngineScan {
		return m.runScan(ctx, len(sources), deadline)
	}
	return m.runEvent(ctx, len(sources), deadline)
}

// runScan is the reference run loop: it steps every core on every simulated
// cycle. The event engine (engine.go) must stay bit-identical to it.
func (m *Machine) runScan(ctx context.Context, remaining int, deadline int64) (int64, error) {
	start := m.now
	nextCheck := start + ctxCheckInterval
	for remaining > 0 {
		if m.now >= deadline {
			return m.now - start, ErrCycleLimit
		}
		if m.now >= nextCheck {
			nextCheck = m.now + ctxCheckInterval
			select {
			case <-ctx.Done():
				return m.now - start, fmt.Errorf("%w after %d cycles: %w", ErrCanceled, m.now-start, ctx.Err())
			default:
			}
		}
		busy := false
		for _, core := range m.cores {
			core.stepRetire(m.now)
			core.stepIssue(m.now)
			core.stepDispatch(m.now)
			core.stepFetch(m.now)
			remaining -= core.endCycle(m.now)
			if !busy && core.anyBusy() {
				busy = true
			}
		}
		if remaining == 0 {
			m.now++
			break
		}
		if !busy {
			// Everyone is asleep: skip ahead. A frozen jump (all threads
			// sleeping on wake hints) replays idleSkip's historical
			// semantics — the clock moves, nothing steps. Otherwise some
			// thread is in a self-resolving hardware stall, so the skipped
			// cycles are stepped-equivalent no-ops and their per-cycle
			// bookkeeping is applied explicitly.
			next, frozen := m.idleNext(m.now, deadline)
			if !frozen {
				if k := next - m.now - 1; k > 0 {
					for _, core := range m.cores {
						core.fastForward(m.now, k)
					}
				}
			}
			m.now = next
			continue
		}
		m.now++
	}
	return m.now - start, nil
}

// idleNext computes where the clock can jump when every context is idle,
// and whether the jump is "frozen" (pure sleep: no per-cycle bookkeeping
// accrues, as with the historical idleSkip) or stepped-equivalent. Sleeping
// sources contribute their wake hints; a source with no hint only pins
// *its own* readiness to the next cycle rather than degrading the whole
// machine to 1-cycle stepping; fetch-stalled contexts contribute their
// redirect-stall expiry.
func (m *Machine) idleNext(now, deadline int64) (int64, bool) {
	next := int64(neverEvent)
	frozen := true
	for _, cc := range m.threadCtx {
		if cc == nil || cc.finished || cc.src == nil {
			continue
		}
		var r int64
		switch {
		case cc.sawIdleThisCycle:
			// Probed idle this cycle: sleep until the wake hint (next
			// cycle when the source offers none).
			r = now + 1
			if cc.waker != nil {
				if h := cc.waker.WakeHint(now); h > r {
					r = h
				}
			}
		case now < cc.fetchStallUntil:
			// Mispredict redirect: fetch resumes by itself, and the
			// thread stays busy (it is executing, not sleeping).
			r = cc.fetchStallUntil
			frozen = false
		default:
			// Runnable but not probed this cycle (fetch arbitration):
			// step again next cycle.
			r = now + 1
			frozen = false
		}
		if r < next {
			next = r
		}
	}
	if next <= now {
		next = now + 1
	}
	if next > deadline {
		next = deadline
	}
	return next, frozen
}

// Now returns the machine clock.
func (m *Machine) Now() int64 { return m.now }

// Counters captures a machine-wide cumulative counter snapshot. ThreadBusy
// is indexed by the thread order of the most recent Run.
func (m *Machine) Counters() counters.Snapshot {
	active := m.activeCores
	if active == 0 {
		active = m.NumCores()
	}
	s := counters.Snapshot{
		WallCycles:   m.now,
		ActiveCores:  active,
		SMTLevel:     m.smtLevel,
		CoreCycles:   uint64(m.now) * uint64(active),
		IssuedByPort: make([]uint64, m.desc.NumPorts),
	}
	for _, chip := range m.chips {
		s.DramLines += chip.dram.Lines
		s.DramStall += chip.dram.StallCycles
		for _, core := range chip.cores {
			s.DispHeldCycles += core.dispHeldCycles
			s.Retired += core.retired
			for c := range core.retiredByClass {
				s.RetiredByClass[c] += core.retiredByClass[c]
			}
			for p := range core.issuedByPort {
				s.IssuedByPort[p] += core.issuedByPort[p]
			}
			for l := range core.hitsByLevel {
				s.HitsByLevel[l] += core.hitsByLevel[l]
			}
			s.BranchLookups += core.pred.Lookups
			s.BranchMispredicts += core.pred.Mispredicts
		}
	}
	s.ThreadBusy = make([]int64, len(m.threadCtx))
	for i, ctx := range m.threadCtx {
		if ctx != nil {
			s.ThreadBusy[i] = ctx.busyCycles
		}
	}
	return s
}
