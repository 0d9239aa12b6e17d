// Package sched is the simulated software runtime: threads, locks, barriers
// and sleeps. It sits between the workload models and the CPU simulator —
// workload models describe what each software thread does as a script of
// segments (compute blocks, lock acquire/release, barriers, sleeps), and
// this package turns a script into the dynamic instruction stream an
// isa.Source must produce, injecting spin loops for contended spin locks and
// idle cycles for blocking waits.
//
// The runtime is what gives the SMT-selection metric its software-visible
// signals:
//
//   - a thread spinning on a contended lock retires a branch- and load-heavy
//     loop, skewing the instruction mix away from the ideal SMT mix;
//   - a thread sleeping on a blocking lock, a barrier, I/O, or an Amdahl
//     serial section accrues no CPU time while the wall clock advances,
//     raising the metric's TotalTime/AvgThrdTime factor.
package sched

import (
	"fmt"

	"repro/internal/isa"
)

// InstGen produces the instructions of a compute segment. Implementations
// live in the workload package; they must be deterministic.
type InstGen interface {
	Gen(out *isa.Inst)
}

// SegKind identifies a script segment.
type SegKind uint8

const (
	// SegEnd terminates the thread.
	SegEnd SegKind = iota
	// SegCompute runs N instructions drawn from Gen.
	SegCompute
	// SegLockAcquire acquires lock Lock (spinning or sleeping according
	// to the lock's kind).
	SegLockAcquire
	// SegLockRelease releases lock Lock.
	SegLockRelease
	// SegBarrier waits on barrier Barrier.
	SegBarrier
	// SegSleep sleeps for N cycles (I/O, network waits, think time).
	SegSleep
)

// Segment is one step of a thread's script.
type Segment struct {
	Kind    SegKind
	N       int64 // instructions for SegCompute, cycles for SegSleep
	Lock    int
	Barrier int
	Gen     InstGen
}

// Script yields the segments of one software thread, in order. NextSegment
// returns false when the thread's work is complete.
type Script interface {
	NextSegment(seg *Segment) bool
}

// LockKind selects the waiting discipline of a lock.
type LockKind uint8

const (
	// SpinLock busy-waits: blocked threads execute a load-compare-branch
	// loop, consuming CPU time and issue slots.
	SpinLock LockKind = iota
	// BlockingLock sleeps: blocked threads yield their hardware context
	// and pay a wake latency when granted the lock (futex-style).
	BlockingLock
)

// WakeLatency is the cycle cost of waking a sleeping thread (scheduler and
// context-switch overhead of a futex-style wake).
const WakeLatency = 1800

// lock is the runtime state of one lock.
type lock struct {
	kind   LockKind
	holder int32 // thread id, -1 when free
	// waiters queues blocked thread ids (blocking locks only).
	waiters []int32
}

// barrier is a sense-reversing barrier.
type barrier struct {
	kind       LockKind // spin or sleeping wait
	arrived    int
	generation uint64
	parties    int
}

// Runtime is the shared state of one workload instance: its locks, barriers
// and threads. A Runtime (and everything running on it) is confined to a
// single simulation goroutine.
type Runtime struct {
	locks    []lock
	barriers []barrier
	threads  []*Thread
	// maxThreads bounds every lock's waiter queue (a thread waits on at
	// most one lock), so AddLock can preallocate the queues and the
	// simulated run path never grows them — lock-heavy workloads would
	// otherwise pay allocation inside the measured run.
	maxThreads int
}

// NewRuntime builds a runtime for the given number of threads.
func NewRuntime(numThreads int) *Runtime {
	if numThreads <= 0 {
		panic("sched: non-positive thread count")
	}
	return &Runtime{threads: make([]*Thread, 0, numThreads), maxThreads: numThreads}
}

// AddLock registers a lock and returns its index.
func (rt *Runtime) AddLock(kind LockKind) int {
	lk := lock{kind: kind, holder: -1}
	if kind == BlockingLock {
		lk.waiters = make([]int32, 0, rt.maxThreads)
	}
	rt.locks = append(rt.locks, lk)
	return len(rt.locks) - 1
}

// AddBarrier registers a barrier over parties threads and returns its index.
func (rt *Runtime) AddBarrier(kind LockKind, parties int) int {
	if parties <= 0 {
		panic("sched: non-positive barrier parties")
	}
	rt.barriers = append(rt.barriers, barrier{kind: kind, parties: parties})
	return len(rt.barriers) - 1
}

// tryAcquire attempts to take lock l for thread id. On failure with a
// blocking lock, the thread is queued (once).
func (rt *Runtime) tryAcquire(l int, id int32, queued *bool) bool {
	lk := &rt.locks[l]
	if lk.holder == -1 {
		lk.holder = id
		return true
	}
	if lk.holder == id {
		panic(fmt.Sprintf("sched: thread %d re-acquiring lock %d", id, l))
	}
	if lk.kind == BlockingLock && !*queued {
		lk.waiters = append(lk.waiters, id)
		*queued = true
	}
	return false
}

// release frees lock l held by thread id; with a blocking lock, ownership is
// handed directly to the oldest waiter, which wakes after WakeLatency.
func (rt *Runtime) release(l int, id int32, now int64) {
	lk := &rt.locks[l]
	if lk.holder != id {
		panic(fmt.Sprintf("sched: thread %d releasing lock %d held by %d", id, l, lk.holder))
	}
	if lk.kind == BlockingLock && len(lk.waiters) > 0 {
		next := lk.waiters[0]
		copy(lk.waiters, lk.waiters[1:])
		lk.waiters = lk.waiters[:len(lk.waiters)-1]
		lk.holder = next
		t := rt.threads[next]
		t.lockGranted = true
		t.wakeAt = now + WakeLatency
		return
	}
	lk.holder = -1
}

// arrive registers thread arrival at barrier b and returns the generation
// the thread must wait for.
func (rt *Runtime) arrive(b int) uint64 {
	bar := &rt.barriers[b]
	gen := bar.generation
	bar.arrived++
	if bar.arrived == bar.parties {
		bar.arrived = 0
		bar.generation++
	}
	return gen
}

// passed reports whether barrier b has moved past generation gen.
func (rt *Runtime) passed(b int, gen uint64) bool {
	return rt.barriers[b].generation > gen
}

// threadMode is the thread state machine.
type threadMode uint8

const (
	modeNextSegment threadMode = iota
	modeCompute
	modeSpinLock
	modeBlockedLock
	modeLockWake // granted, waiting out the wake latency
	modeSpinBarrier
	modeSleepBarrier
	modeSleep
	modeDone
)

// Thread is one software thread: a Script interpreter that implements
// isa.Source for the CPU simulator.
type Thread struct {
	ID int32
	rt *Runtime

	script Script
	seg    Segment
	left   int64 // instructions left in the current compute segment
	mode   threadMode

	// lock wait state
	lockQueued  bool
	lockGranted bool
	wakeAt      int64

	// barrier wait state
	barrierGen uint64

	// spin-loop emission state
	spinPos  int
	spinAddr uint64

	// Stats.
	UsefulInstrs int64
	SpinInstrs   int64
}

// NewThread registers a new thread running script on the runtime.
func (rt *Runtime) NewThread(script Script) *Thread {
	t := &Thread{
		ID:     int32(len(rt.threads)),
		rt:     rt,
		script: script,
		mode:   modeNextSegment,
	}
	// Each thread spins on its own cache line of the lock word region.
	t.spinAddr = 0x7f00_0000_0000 | uint64(t.ID)<<7
	rt.threads = append(rt.threads, t)
	return t
}

// spinLoop is the canonical test-and-test-and-set wait loop body: reload the
// lock word, compare, branch back. Spinning threads retire these like any
// other instructions, which is precisely how lock contention surfaces in the
// instruction mix the metric observes.
var spinLoop = [3]isa.Class{isa.Load, isa.Int, isa.Branch}

func (t *Thread) emitSpin(out *isa.Inst) {
	cls := spinLoop[t.spinPos]
	*out = isa.Inst{Class: cls}
	switch cls {
	case isa.Load:
		out.Addr = t.spinAddr
		out.SharedAddr = true
	case isa.Branch:
		out.Addr = t.spinAddr ^ 0x5bd1
		out.Taken = true
		out.Dep1 = 1 // branch on the comparison
	case isa.Int:
		out.Dep1 = 1 // compare the loaded value
	}
	t.spinPos++
	if t.spinPos == len(spinLoop) {
		t.spinPos = 0
	}
	t.SpinInstrs++
}

// Fetch implements isa.Source. The compute mode, where a thread spends
// nearly every fetch, is tested before the mode loop.
func (t *Thread) Fetch(now int64, out *isa.Inst) isa.FetchStatus {
	if t.mode == modeCompute {
		return t.compute(out)
	}
	for {
		switch t.mode {
		case modeNextSegment:
			if !t.script.NextSegment(&t.seg) {
				t.mode = modeDone
				continue
			}
			switch t.seg.Kind {
			case SegEnd:
				t.mode = modeDone
			case SegCompute:
				if t.seg.N > 0 && t.seg.Gen != nil {
					t.left = t.seg.N
					t.mode = modeCompute
				}
			case SegLockAcquire:
				t.lockQueued = false
				t.lockGranted = false
				if t.rt.tryAcquire(t.seg.Lock, t.ID, &t.lockQueued) {
					break // acquired immediately; next segment
				}
				if t.rt.locks[t.seg.Lock].kind == SpinLock {
					t.spinPos = 0
					t.mode = modeSpinLock
				} else {
					t.mode = modeBlockedLock
				}
			case SegLockRelease:
				t.rt.release(t.seg.Lock, t.ID, now)
			case SegBarrier:
				t.barrierGen = t.rt.arrive(t.seg.Barrier)
				if t.rt.passed(t.seg.Barrier, t.barrierGen) {
					break // last to arrive; pass through
				}
				if t.rt.barriers[t.seg.Barrier].kind == SpinLock {
					t.spinPos = 0
					t.mode = modeSpinBarrier
				} else {
					t.mode = modeSleepBarrier
				}
			case SegSleep:
				if t.seg.N > 0 {
					t.wakeAt = now + t.seg.N
					t.mode = modeSleep
				}
			default:
				panic(fmt.Sprintf("sched: unknown segment kind %d", t.seg.Kind))
			}

		case modeCompute:
			return t.compute(out)

		case modeSpinLock:
			if t.rt.tryAcquire(t.seg.Lock, t.ID, &t.lockQueued) {
				t.mode = modeNextSegment
				continue
			}
			t.emitSpin(out)
			return isa.FetchOK

		case modeBlockedLock:
			if t.lockGranted {
				t.mode = modeLockWake
				continue
			}
			return isa.FetchIdle

		case modeLockWake:
			if now < t.wakeAt {
				return isa.FetchIdle
			}
			t.mode = modeNextSegment

		case modeSpinBarrier:
			if t.rt.passed(t.seg.Barrier, t.barrierGen) {
				t.mode = modeNextSegment
				continue
			}
			t.emitSpin(out)
			return isa.FetchOK

		case modeSleepBarrier:
			if t.rt.passed(t.seg.Barrier, t.barrierGen) {
				// Barrier wake, with scheduler latency.
				t.wakeAt = now + WakeLatency
				t.mode = modeLockWake
				continue
			}
			return isa.FetchIdle

		case modeSleep:
			if now < t.wakeAt {
				return isa.FetchIdle
			}
			t.mode = modeNextSegment

		case modeDone:
			return isa.FetchDone

		default:
			panic("sched: corrupt thread mode")
		}
	}
}

// compute emits the next instruction of the current compute segment.
func (t *Thread) compute(out *isa.Inst) isa.FetchStatus {
	t.seg.Gen.Gen(out)
	t.left--
	t.UsefulInstrs++
	if t.left == 0 {
		t.mode = modeNextSegment
	}
	return isa.FetchOK
}

// farFuture is the wake hint of a thread that can only be woken by another
// thread's progress (it never becomes the idle-skip minimum; some other
// thread is runnable or has an earlier hint, or the workload is deadlocked).
const farFuture = int64(1) << 62

// WakeHint implements cpu.Waker so fully idle stretches can be skipped.
func (t *Thread) WakeHint(now int64) int64 {
	switch t.mode {
	case modeSleep, modeLockWake:
		return t.wakeAt
	case modeBlockedLock:
		if t.lockGranted {
			return t.wakeAt
		}
		return farFuture
	case modeSleepBarrier:
		return farFuture
	default:
		return now
	}
}

// computeLookahead is an optional Script extension: a script that can walk
// its own segment structure without mutating it reports how many further
// compute instructions are guaranteed to follow the current segment before
// any boundary whose outcome depends on runtime state (a lock acquire, a
// barrier, a sleep, the end of the script's work). The count must be
// conservative: every counted instruction must be emitted by a Fetch that
// returns FetchOK, unconditionally.
type computeLookahead interface {
	ComputeLookahead(max int64) int64
}

// maxComputeRun caps the lookahead so ComputeRun stays cheap: the event
// engine chunks macro spans far below this anyway.
const maxComputeRun = 4096

// ComputeRun implements cpu.ComputeRunner: in the middle of a compute
// segment, the remaining segment instructions are guaranteed FetchOK (Gen
// never blocks), extended through upcoming segments by the script's own
// lookahead when it offers one. Between segments (the mode a thread sits
// in right after consuming a segment's last instruction) the lookahead
// alone gives the guarantee — the next Fetch processes upcoming segments
// inline and returns OK from the first counted compute instruction. In any
// other mode the next Fetch outcome depends on runtime state (lock grants,
// barrier generations, wake cycles), so no run is guaranteed.
func (t *Thread) ComputeRun() int64 {
	switch t.mode {
	case modeCompute:
		run := t.left
		if la, ok := t.script.(computeLookahead); ok && run < maxComputeRun {
			run += la.ComputeLookahead(maxComputeRun - run)
		}
		return run
	case modeNextSegment:
		if la, ok := t.script.(computeLookahead); ok {
			return la.ComputeLookahead(maxComputeRun)
		}
	}
	return 0
}

// ExactIdle implements cpu.ExactWaker: it reports whether the thread's
// current idle state may be probed lazily without observable effect.
//
//   - modeSleep and modeLockWake: wakeAt was fixed when the sleep began (or
//     when the lock was granted at release time), so every probe before
//     wakeAt returns FetchIdle and changes nothing; WakeHint is exact.
//   - modeBlockedLock: probes only inspect lockGranted. A grant (made
//     inside the releasing thread's Fetch) sets wakeAt = release cycle +
//     WakeLatency, independent of when this thread is next probed, and
//     WakeHint reports it from the grant onward — so skipped probes are
//     unobservable and the hint never lands in the past.
//   - modeSleepBarrier is probe-SENSITIVE: the passing of the barrier is
//     observed by the next probe, and WakeLatency is counted from that
//     probing cycle. Skipping probes would move the wake, so it reports
//     false and the event engine keeps re-probing every cycle.
func (t *Thread) ExactIdle() bool {
	switch t.mode {
	case modeSleep, modeLockWake, modeBlockedLock:
		return true
	}
	return false
}
