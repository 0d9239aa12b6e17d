package cpu

import (
	"context"
	"fmt"
)

// This file implements the event-driven cycle engine. The scan engine
// (machine.go, runScan) steps every core on every simulated cycle; this
// engine keeps a per-core next-event cycle and only steps cores at cycles
// where their state can actually change, fast-forwarding the per-cycle
// bookkeeping (round-robin rotation, busy/held accounting) over the skipped
// stretch. Both engines produce bit-identical simulations; the golden
// artifact suite and TestEngineEquivalence are the referee.
//
// Soundness of skipping rests on three invariants:
//
//  1. A core whose next-event cycle is in the future executes only no-op
//     steps until then: nothing retires, issues, dispatches or fetches, so
//     skipping those steps changes no microarchitectural state. step reads
//     the next-event cycle off the stage bounds, which are never later
//     than the events they bound. The issue events behind issueAt are
//     exact: a queued ref's ready cycle is the latest completeAt of its
//     producers once they have all issued, and unknownCycle until the last
//     of them issues and wakes it; each queue's nextReady is the smallest
//     ready cycle in the queue. A completeAt never changes after issue, and
//     a waited-on producer's slot is never refilled (see setSMT).
//  2. A probed-idle context (its source returned FetchIdle) can be woken
//     externally by another thread's progress — a lock grant or barrier
//     release happens inside the *holder's* Fetch. While any context in
//     the machine is busy, a core hosting a probed-idle context is
//     therefore pinned to 1-cycle stepping so the idle source is re-probed
//     every cycle, exactly as the scan engine probes it — UNLESS every
//     probed-idle context on the core reports ExactIdle: such sources
//     guarantee the skipped probes are pure and their wake hints only move
//     through another thread's progress, so the run loop re-reads the
//     hints once per scheduling round (after every step of that round, so
//     a grant issued this round is seen) instead of stepping the core
//     every cycle. Probing an exact-idle source on any cycle before its
//     hint is indistinguishable from not probing it, which is what keeps
//     the skip bit-identical to the scan engine. Idle probes are pure (no
//     source state changes), so when the whole machine is idle no external
//     wake can occur and the clock may jump to the earliest wake hint —
//     the scan engine's idleSkip.
//  3. An empty-pipeline context that was NOT probed on its last stepped
//     cycle is fetch-stalled on a branch redirect; its source was last
//     executing instructions, so its wake hint is "now" throughout the
//     stall and the scan engine would account it busy. fastForward
//     re-derives sleep state from the frozen WakeHint, which matches.
//
// Skipped cycles come in two flavors, mirroring the scan engine:
//
//   - per-core skips and machine-idle skips with a pending hardware event
//     are "stepped-equivalent": the scan engine would have stepped those
//     cycles as no-ops, so fastForward rotates the round-robin pointer and
//     accrues busy/held cycles;
//   - machine-idle skips with no hardware event pending (every unfinished
//     thread asleep with a future wake hint) are "frozen": the scan
//     engine's idleSkip jumps the clock without stepping, so no pointer
//     rotates and nothing accrues.
//
// Live cores: the run loop steps, schedules and macro-steps only the
// machine's live-core list (Machine.live) — the cores with at least one
// unfinished context, in m.cores order. A core without one (never
// populated, or its last context finished) can change nothing but its
// round-robin pointer: it holds no fetchable thread, no fetch buffer and
// no in-flight instruction of this run, and touches no cache or DRAM, so
// skipping it leaves every live core's view of the chip as the scan
// engine's. Such a core keeps its lastStepped and nextEvent = neverEvent,
// and settleCores, which walks every core, credits its rotation when the
// run exits, like any other pending skip. The pure-sleep freeze also walks
// every core: the scan engine rotates no pointer across a frozen stretch,
// so every core's lastStepped must move past it. A core whose last context
// finishes leaves the list in a stable in-place compaction after the
// round's loop, so the survivors keep m.cores order — the order the stages
// run in per cycle, and so the order of shared L3 and DRAM accesses.

// neverEvent marks a core with no scheduled event (all contexts finished,
// or progress only possible through another context's action).
const neverEvent = int64(1) << 62

// Macro-stepping: when every unfinished thread in the run sits inside a
// homogeneous compute run — its source (a ComputeRunner) guarantees the
// next k Fetch calls all return FetchOK, with no lock, barrier, sleep or
// end-of-work boundary inside the run — the engine retires a whole stretch
// of cycles in one bulk update (macroStep) instead of running the per-cycle
// event bookkeeping. The macro loop executes the exact per-cycle stage
// sequence the scan engine runs (retire, issue, dispatch, fetch, per live
// core in m.cores order), so the microarchitectural simulation is
// bit-identical by construction; what it elides is the event-engine overhead around it —
// next-event computation, the merged end-of-cycle flag pass, and the
// round-loop scheduling — plus the scan engine's endCycle/anyBusy passes,
// whose effects are reconstructed arithmetically:
//
//   - busy accounting: a thread with a positive guaranteed compute run is
//     never asleep (its pipeline is fed or it is mid-redirect with WakeHint
//     "now"), so every unfinished context accrues exactly span busy cycles;
//   - finish detection: within a span of S cycles a context consumes at
//     most S×FetchWidth fetches (each Fetch call in the guarantee window
//     returns FetchOK and consumes one budget unit, so no call past the
//     guaranteed run can occur while S×FetchWidth ≤ run) — FetchDone and
//     FetchIdle are unreachable, no context finishes or sleeps mid-span;
//   - dispatch-held accounting is accrued by stepDispatch itself.
//
// The event-horizon check gating entry (runEvent) is conservative on every
// axis: the machine must be busy with no probed-idle context anywhere
// (sawProbe — external wakes and probe-timing observability stay on the
// exact path), every live core must be due within the hot horizon (allHot
// — anything with a distant future event falls back to the exact loop),
// the span is capped by the cycle deadline so ErrCycleLimit cuts at the
// identical cycle, and a warmup streak (macroWarmup) keeps
// stall-skipping workloads — where the event engine profits from NOT
// stepping — off the macro path. Spans are chunked (macroChunk) so the
// guarantee and the horizon are re-checked from fresh state every few dozen
// cycles, and runs shorter than macroMinSpan cycles are not worth the
// span computation and fall through to normal stepping.

const (
	// macroChunk is the span cap in cycles: a bulk update never outruns the
	// re-check of the event horizon by more than this. It matches the
	// largest span the sched lookahead cap can justify (maxComputeRun /
	// FetchWidth on POWER7), so long compute runs pay one horizon re-check
	// per cap-sized span rather than two, and it stays far below
	// ctxCheckInterval, so cancellation polls stay effectively on time.
	macroChunk = 512
	// macroWarmup is the number of consecutive all-hot busy rounds required
	// before macro-stepping engages.
	macroWarmup = 8
	// macroHotHorizon is how far ahead a core's next event may sit while the
	// core still counts as compute-hot: it covers the short bubbles of
	// chain-bound compute (ALU/FP completions, divides, L1-L3 hits) without
	// admitting the DRAM-latency stalls the event engine profits from
	// skipping (POWER7: FPDiv 26, L3 27, DRAM 230).
	macroHotHorizon = 32
	// macroMinSpan is the minimum profitable span in cycles; shorter
	// guaranteed runs are stepped normally.
	macroMinSpan = 4
)

// macroRun returns the number of Fetch calls guaranteed to return FetchOK
// for every unfinished context on the core — the minimum of the contexts'
// ComputeRun guarantees, zero when any unfinished context offers none.
// A fully finished core returns neverEvent (no constraint).
func (c *Core) macroRun() int64 {
	run := int64(neverEvent)
	for i := 0; i < c.used; i++ {
		ctx := c.contexts[i]
		if ctx.finished {
			continue
		}
		if ctx.runner == nil {
			return 0
		}
		r := ctx.runner.ComputeRun()
		if r <= 0 {
			return 0
		}
		if r < run {
			run = r
		}
	}
	return run
}

// alive reports whether any active context on the core holds an
// unfinished thread: membership of the machine's live-core list.
func (c *Core) alive() bool {
	for i := 0; i < c.used; i++ {
		if !c.contexts[i].finished {
			return true
		}
	}
	return false
}

// allHot reports whether every live core is due to step within the hot
// horizon or has no scheduled event at all. A core with a distant future
// event — a pending DRAM completion, a fetch-redirect expiry — makes the
// machine non-hot: the event engine profits from skipping toward that
// event, so macro-stepping stays out of the way.
func (m *Machine) allHot() bool {
	for _, c := range m.live {
		if c.nextEvent > m.now+macroHotHorizon && c.nextEvent != neverEvent {
			return false
		}
	}
	return true
}

// macroSpan computes the bulk-steppable span starting at cycle m.now+1: the
// machine-wide minimum guaranteed compute run divided by the fetch width
// (the per-core, per-cycle upper bound on fetch consumption), capped by the
// chunk size and the cycle deadline. Zero means no profitable span.
func (m *Machine) macroSpan(deadline int64) int64 {
	fw := int64(m.cores[0].arch.FetchWidth)
	run := int64(neverEvent)
	for _, c := range m.live {
		r := c.macroRun()
		if r < run {
			run = r
			// Bail on the first core that sinks the span below profit
			// (barrier- and lock-adjacent rounds reject here every time,
			// without polling the remaining cores' runs).
			if run < macroMinSpan*fw {
				return 0
			}
		}
	}
	span := run / fw
	if span > macroChunk {
		span = macroChunk
	}
	if lim := deadline - m.now - 1; span > lim {
		span = lim
	}
	return span
}

// macroStep bulk-executes cycles [from, from+span) — the exact scan-engine
// stage sequence per cycle, on the live cores — and applies the elided
// per-cycle accounting arithmetically (see the macro-stepping invariants
// above). Pending fast-forwards are settled first so live cores due
// exactly at from enter the stretch with their bookkeeping current; cores
// off the live list keep their pending skip until the exit settle.
func (m *Machine) macroStep(from, span int64) {
	for _, c := range m.live {
		if k := from - 1 - c.lastStepped; k > 0 {
			c.fastForward(c.lastStepped, k)
		}
	}
	for cy := from; cy < from+span; cy++ {
		for _, c := range m.live {
			c.stepRetire(cy)
			c.stepIssue(cy)
			c.stepDispatch(cy)
			c.stepFetch(cy)
		}
	}
	for _, c := range m.live {
		for i := 0; i < c.used; i++ {
			ctx := c.contexts[i]
			if !ctx.finished {
				ctx.busyCycles += span
			}
		}
		c.lastStepped = from + span - 1
		// Every core steps again on the next round, which refreshes the
		// busy/probe flags and the true next event from post-span state.
		c.nextEvent = from + span
		c.busyEnd = true
		c.idleProbe = false
		c.idleExact = false
	}
	m.now = from + span
}

// step runs one full cycle on the core and refreshes its event-engine
// bookkeeping. It returns the number of contexts that finished this cycle.
//
// The end-of-cycle bookkeeping (busy accounting, finish detection, the
// busyEnd/idleProbe/idleExact caches and the next event) is folded into one
// pass over the contexts: this is the hot loop of every stepped cycle, and
// the separate endCycle+anyBusy+probe-scan passes the scan engine runs cost
// the event engine its edge on compute-bound cells. The per-context
// conditions are the same ones endCycle and anyBusy apply — the
// equivalence suite holds both engines to identical simulations.
//
// The next event is read off the stage bounds: the earliest of issueAt,
// retireAt, the fetch-stall expiry of every context that may fetch and was
// not probed idle (invariant 2 leaves those to the run loop), and the next
// cycle when a context holds buffered instructions while dispatch is not
// blocked, floored at the next cycle. A bound may be too low but never too
// high: a low one only costs a step on which no stage acts, the kind of
// step the scan engine takes every cycle, so no simulated event moves.
func (c *Core) step(now int64) int {
	c.stepRetire(now)
	c.stepIssue(now)
	c.stepDispatch(now)
	c.stepFetch(now)
	finished := 0
	busy := false
	idleProbe := false
	idleExact := true
	next := min(c.issueAt, c.retireAt)
	for i := 0; i < c.used; i++ {
		ctx := c.contexts[i]
		if ctx.finished {
			continue
		}
		empty := ctx.windowLen() == 0 && ctx.fbLen == 0
		asleep := false
		if empty && !ctx.fetchedThisCycle && !ctx.done {
			if ctx.sawIdleThisCycle {
				asleep = true
			} else if ctx.waker != nil {
				// Not probed this cycle (fetch arbitration); ask the
				// source whether it is sleeping.
				asleep = ctx.waker.WakeHint(now) > now
			}
		}
		if !asleep {
			ctx.busyCycles++
		}
		if ctx.done && empty {
			ctx.finished = true
			finished++
			continue
		}
		if ctx.fetchedThisCycle || !empty {
			busy = true
		}
		if ctx.sawIdleThisCycle {
			idleProbe = true
			if ctx.exact == nil || !ctx.exact.ExactIdle() {
				idleExact = false
			}
		} else if !ctx.done && !ctx.fetchBlocked && ctx.fbLen < fetchBufCap {
			next = min(next, ctx.fetchStallUntil)
		}
		if ctx.fbLen > 0 && !c.dispBlocked {
			next = min(next, now+1)
		}
	}
	c.lastStepped = now
	c.busyEnd = busy
	c.idleProbe = idleProbe
	c.idleExact = idleProbe && idleExact
	c.nextEvent = max(now+1, next)
	return finished
}

// idleWake returns the earliest wake hint of the core's probed-idle
// contexts, now+1 for a source that offers none, and neverEvent when no
// context was probed idle. A hint may lie at or before now: callers floor
// it at now+1 or compare it with now.
func (c *Core) idleWake(now int64) int64 {
	w := int64(neverEvent)
	for i := 0; i < c.used; i++ {
		ctx := c.contexts[i]
		if ctx.finished || !ctx.sawIdleThisCycle {
			continue
		}
		h := now + 1
		if ctx.waker != nil {
			h = ctx.waker.WakeHint(now)
		}
		w = min(w, h)
	}
	return w
}

// fastForward applies the per-cycle bookkeeping the scan engine would have
// performed over k skipped no-op cycles following a step at cycle from:
// the round-robin pointer rotates once per cycle, non-sleeping contexts
// accrue busy time, and a blocked dispatch stage accrues held cycles.
// Context state is frozen across the skip (no steps ran), so the busy/held
// conditions of cycle from hold for every skipped cycle.
func (c *Core) fastForward(from, k int64) {
	c.rr = (c.rr + int(k%int64(c.arch.MaxSMT))) % c.arch.MaxSMT
	held := false
	for i := 0; i < c.used; i++ {
		ctx := c.contexts[i]
		if ctx.finished {
			continue
		}
		if ctx.fbLen > 0 {
			// On a skipped core every buffered context is dispatch-blocked
			// (otherwise dispatch would have been a next-cycle event).
			held = true
		}
		asleep := false
		if ctx.windowLen() == 0 && ctx.fbLen == 0 && !ctx.done {
			if ctx.sawIdleThisCycle {
				asleep = true
			} else if ctx.waker != nil {
				asleep = ctx.waker.WakeHint(from) > from
			}
		}
		if !asleep {
			ctx.busyCycles += k
		}
	}
	if held {
		c.dispHeldCycles += uint64(k)
	}
}

// settleCores brings every core's bookkeeping up to cycle upto, crediting
// any still-pending skipped cycles — including the whole tail of a core
// that left the live list. Called on every run-loop exit (and before a
// pure-sleep freeze) so that Counters and the round-robin pointer always
// reflect the full simulated range.
func (m *Machine) settleCores(upto int64) {
	for _, c := range m.cores {
		if k := upto - c.lastStepped; k > 0 {
			c.fastForward(c.lastStepped, k)
			c.lastStepped = upto
		}
	}
}

// compactLive drops the cores whose last context finished from the live
// list, in place and stably, so the survivors keep m.cores order.
func (m *Machine) compactLive() {
	n := 0
	for _, c := range m.live {
		if c.alive() {
			m.live[n] = c
			n++
		}
	}
	m.live = m.live[:n]
}

// runEvent is the event-driven run loop: it steps only cores whose next
// event is due and advances the clock to the earliest pending event
// otherwise. remaining is the count of unfinished sources; deadline is the
// absolute cycle limit.
func (m *Machine) runEvent(ctx context.Context, remaining int, deadline int64) (int64, error) {
	start := m.now
	nextCheck := start + ctxCheckInterval
	// The live list is rebuilt in place: its backing array has room for
	// every core of the machine, so the appends never allocate.
	m.live = m.live[:0]
	for _, c := range m.cores {
		c.lastStepped = m.now - 1
		c.nextEvent = neverEvent
		c.busyEnd = false
		c.idleProbe = false
		c.idleExact = false
		if c.alive() {
			c.nextEvent = m.now
			m.live = append(m.live, c)
		}
	}
	for remaining > 0 {
		if m.now >= deadline {
			m.settleCores(m.now - 1)
			return m.now - start, ErrCycleLimit
		}
		if m.now >= nextCheck {
			nextCheck = m.now + ctxCheckInterval
			select {
			case <-ctx.Done():
				m.settleCores(m.now - 1)
				return m.now - start, fmt.Errorf("%w after %d cycles: %w", ErrCanceled, m.now-start, ctx.Err())
			default:
			}
		}
		// One pass steps every due core and accumulates the round's busy
		// flag, probe flag and earliest hardware event; compute-bound runs
		// (no probed-idle cores) schedule the next round right here with no
		// further core pass. An exact-idle core is due when a wake hint has
		// come within reach — hints are re-read at the top of each round, so
		// a grant from the previous round is never missed.
		busy := false
		sawProbe := false
		died := false
		next := int64(neverEvent)
		for _, c := range m.live {
			if c.nextEvent <= m.now || (c.idleExact && c.idleWake(m.now) <= m.now) {
				if k := m.now - 1 - c.lastStepped; k > 0 {
					c.fastForward(c.lastStepped, k)
				}
				if f := c.step(m.now); f > 0 {
					remaining -= f
					if !c.alive() {
						c.nextEvent = neverEvent
						died = true
					}
				}
			}
			if c.busyEnd {
				busy = true
			}
			if c.idleProbe {
				sawProbe = true
			}
			if c.nextEvent < next {
				next = c.nextEvent
			}
		}
		if remaining == 0 {
			m.now++
			break
		}
		if died {
			m.compactLive()
		}
		if busy {
			if !sawProbe && m.allHot() {
				// Macro-stepping candidate: every live core is compute-hot.
				// After the warmup streak, bulk-step the machine-wide
				// guaranteed compute run (chunked, deadline-capped); on any
				// failed condition fall through to the exact 1-cycle round.
				m.hotStreak++
				if m.hotStreak >= macroWarmup {
					if span := m.macroSpan(deadline); span > 0 {
						m.macroStep(m.now+1, span)
						continue
					}
				}
			} else {
				m.hotStreak = 0
			}
			if sawProbe {
				// Hint pass, after every step of this round so lock grants
				// issued this round are visible.
				for _, c := range m.live {
					if !c.idleProbe || c.nextEvent <= m.now+1 {
						continue
					}
					if c.idleExact {
						// Invariant 2, exact form: skip the re-probes and
						// wake with the hint, which the clock advance below
						// floors. Not cached in nextEvent — a grant may move
						// the hint, so every round re-reads it fresh.
						next = min(next, c.idleWake(m.now))
					} else {
						// Invariant 2: keep re-probing probe-sensitive idle
						// sources every cycle while anything in the machine
						// is making progress, so external wakes land on
						// time. Probe timing is observable for them (a
						// barrier wake pays its latency from the probing
						// cycle), so this matches the scan engine probe for
						// probe.
						c.nextEvent = m.now + 1
						next = m.now + 1
					}
				}
			}
		} else {
			// The whole machine is idle: no external wake can occur, so
			// jump to the earliest hardware event or wake hint.
			m.hotStreak = 0
			hint := int64(neverEvent)
			for _, c := range m.live {
				hint = min(hint, c.idleWake(m.now))
			}
			if next == neverEvent {
				// Pure sleep, no hardware event pending: the scan engine's
				// idleSkip jumps the clock without stepping — credit
				// pending skips, then freeze.
				next = min(max(hint, m.now+1), deadline)
				// Every core freezes, finished ones included: the exit
				// settle must not rotate them through the frozen stretch.
				m.settleCores(m.now)
				for _, c := range m.cores {
					c.lastStepped = next - 1
				}
				for _, c := range m.live {
					c.nextEvent = next
				}
				m.now = next
				continue
			}
			next = min(max(min(next, hint), m.now+1), deadline)
			// The scan engine steps every core at the cycle an idle
			// stretch ends, and a waking thread's first probe can act on
			// state another core changes that same cycle (a barrier pass),
			// so every live core must step at the jump target.
			for _, c := range m.live {
				c.nextEvent = next
			}
			m.now = next
			continue
		}
		m.now = min(max(next, m.now+1), deadline)
	}
	m.settleCores(m.now - 1)
	return m.now - start, nil
}
