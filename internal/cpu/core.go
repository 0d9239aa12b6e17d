// Package cpu implements the cycle-approximate SMT processor simulator: a
// multi-chip, multi-core machine where each core runs 1-4 hardware contexts
// over a shared out-of-order backend, modelled after the POWER7 and Nehalem
// execution engines the paper describes (its Figs. 4 and 5).
//
// The model captures exactly the mechanisms the SMT-selection metric keys
// on:
//
//   - issue ports with class-restricted eligibility, so a homogeneous
//     instruction mix saturates one port while others idle;
//   - per-port issue queues and a reorder window partitioned per SMT level,
//     with dispatch-held-for-resources accounting (PM_DISP_CLB_HELD_RES);
//   - dependency-tracked out-of-order issue, so long dependency chains leave
//     issue slots for other hardware contexts;
//   - a cache hierarchy and finite-bandwidth DRAM, so memory-bound threads
//     stall (an opportunity for SMT) or contend (a hazard of SMT);
//   - branch prediction with fetch-redirect stalls.
//
// Simulation is trace-driven: each hardware context pulls its software
// thread's dynamic instruction stream from an isa.Source. Mispredicted
// branches stall fetch until resolution rather than executing a wrong path,
// the standard trace-driven approximation.
package cpu

import (
	"repro/internal/arch"
	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
)

const (
	// histBits sizes the per-context instruction history ring. It must
	// exceed the largest per-context window plus the largest dependency
	// distance (255, the largest uint8), so that a waiting instruction's
	// producers keep their slots until it issues (see setSMT).
	histBits = 9
	histSize = 1 << histBits
	histMask = histSize - 1

	// fetchBufCap is the per-context fetch/decode buffer depth.
	fetchBufCap = 16

	// unknownCycle marks an entry whose completion time is not yet known
	// (not yet issued), and a queued ref whose ready cycle is not (a
	// producer has not issued).
	unknownCycle = int64(1) << 62
)

// entryState tracks an instruction's position in the backend.
type entryState uint8

const (
	entryEmpty   entryState = iota
	entryWaiting            // dispatched into a port queue, not yet issued
	entryIssued             // issued; completeAt is valid
)

// entry is one in-flight (or recently retired) instruction in a context's
// history ring.
type entry struct {
	completeAt int64
	addr       uint64
	dep1, dep2 int64 // absolute sequence numbers; negative = no dependency
	// waiters heads the list of waiting consumers this entry has not
	// woken yet, and links[k] chains this entry through the list of the
	// producer of its operand k+1 (see waiterNode).
	waiters uint16
	links   [2]uint16
	class   isa.Class
	state   entryState
	// pending counts the producers that have not issued; port is the
	// queue that holds this entry's ref while it waits.
	pending    uint8
	port       uint8
	mispredict bool
	shared     bool
}

// waiterNode names operand which (0 for dep1, 1 for dep2) of the consumer
// in history slot slot, as a node of its producer's waiter list:
// slot<<1 | which, plus 1, so that 0 ends a list.
func waiterNode(slot int64, which int) uint16 {
	return uint16(slot<<1|int64(which)) + 1
}

// Context is one hardware thread: the execution context of a software
// thread placed on a core. Contexts beyond the current SMT level are
// inactive.
type Context struct {
	core    *Core
	localID int // index within the core
	src     isa.Source
	waker   Waker         // src's wake-hint interface, when implemented
	exact   ExactWaker    // src's exact-idle interface, when implemented
	runner  ComputeRunner // src's compute-run interface, when implemented

	entries    [histSize]entry
	head, tail int64 // window is [head, tail); seq numbers are global per context

	fetchBuf        [fetchBufCap]isa.Inst
	fetchMispredict [fetchBufCap]bool
	fbHead, fbLen   int

	// fetchBlocked is set when a mispredicted branch has been fetched and
	// not yet issued: no further instructions enter the pipeline.
	fetchBlocked bool
	// fetchStallUntil delays fetch after a mispredicted branch resolves.
	fetchStallUntil int64

	done     bool // source reported FetchDone
	finished bool // done and pipeline drained

	// busyCycles accrues the context's CPU time. A context is busy on
	// every cycle it exists except when its software thread is truly
	// asleep: pipeline empty and the source reporting FetchIdle. Stalls
	// (cache misses, mispredict redirects, fetch arbitration) count as
	// busy, exactly as OS CPU-time accounting sees them. Sleeping accrues
	// nothing, which is what makes wall-time / avg-thread-time a
	// scalability signal.
	busyCycles int64

	fetchedThisCycle bool
	sawIdleThisCycle bool
}

// windowLen returns the number of in-flight instructions.
func (c *Context) windowLen() int { return int(c.tail - c.head) }

// reset prepares the context for a new software thread. busyCycles is NOT
// cleared: like every other counter it accumulates across runs (per-thread
// CPU time on real hardware does not reset when a new process lands on a
// context); Machine.Reset clears it.
func (c *Context) reset(src isa.Source) {
	for i := range c.entries {
		c.entries[i] = entry{}
	}
	c.src = src
	c.waker = nil
	c.exact = nil
	c.runner = nil
	if w, ok := src.(Waker); ok {
		c.waker = w
		if ew, ok := src.(ExactWaker); ok {
			c.exact = ew
		}
	}
	if r, ok := src.(ComputeRunner); ok {
		c.runner = r
	}
	c.head, c.tail = 0, 0
	c.fbHead, c.fbLen = 0, 0
	c.fetchBlocked = false
	c.fetchStallUntil = 0
	c.done = src == nil
	c.finished = c.done
	c.fetchedThisCycle = false
	c.sawIdleThisCycle = false
	// A run cut by its cycle limit or by cancellation leaves this
	// context's dispatched instructions in the core's port queues. Squash
	// them, so the next run never issues whatever entry then sits in
	// their slot.
	for p := range c.core.ports {
		c.core.ports[p].squash(uint8(c.localID))
	}
	c.core.resetBounds()
}

// portRef locates a dispatched instruction from a port queue. ready is
// the exact cycle its operands complete: the latest completeAt of its
// producers, set at dispatch when they have all issued and by wake when
// the last of them issues, and unknownCycle until then.
type portRef struct {
	ready int64
	slot  uint16 // history-ring slot of the entry
	ctx   uint8
}

// portQueue is one issue port's queue, shared by the core's contexts. The
// backing ring is sized to a power of two so position arithmetic is a mask.
type portQueue struct {
	refs      []portRef // ring buffer, len is a power of two
	mask      int
	head, n   int
	busyUntil int64 // for unpipelined ops and extra-port consumption
	// nextReady is the smallest ready cycle in the queue, unknownCycle when
	// no ref has one: push and wake lower it, and the issue pass or a
	// squash recomputes it.
	nextReady int64
}

func (q *portQueue) init(capacity int) {
	size := 1
	for size < capacity {
		size <<= 1
	}
	q.refs = make([]portRef, size)
	q.mask = size - 1
	q.nextReady = unknownCycle
}

func (q *portQueue) push(r portRef) {
	q.refs[(q.head+q.n)&q.mask] = r
	q.n++
	q.nextReady = min(q.nextReady, r.ready)
}

// squash deletes context ctx's references by a stable in-place
// compaction and recomputes nextReady.
func (q *portQueue) squash(ctx uint8) {
	n := 0
	q.nextReady = unknownCycle
	for i := 0; i < q.n; i++ {
		if r := q.refs[(q.head+i)&q.mask]; r.ctx != ctx {
			q.refs[(q.head+n)&q.mask] = r
			q.nextReady = min(q.nextReady, r.ready)
			n++
		}
	}
	q.n = n
}

// removeAt deletes the i-th oldest reference, preserving order.
func (q *portQueue) removeAt(i int) {
	for j := i; j > 0; j-- {
		q.refs[(q.head+j)&q.mask] = q.refs[(q.head+j-1)&q.mask]
	}
	q.head = (q.head + 1) & q.mask
	q.n--
}

// Core is one processor core: up to MaxSMT hardware contexts sharing a
// fetch/dispatch frontend, per-port issue queues, an L1D/L2 cache pair, a
// branch predictor, and the chip's shared L3.
type Core struct {
	arch *arch.Desc
	chip *Chip

	contexts []*Context // len = arch.MaxSMT; first smtLevel are active
	active   int        // current SMT level
	// used counts the leading active contexts the run placed a thread on.
	// The rest were reset(nil), so they stay done, finished and empty,
	// and every per-context loop stops at used.
	used int

	ports []portQueue
	pred  *branch.Predictor
	l1    *mem.Cache
	l2    *mem.Cache
	pf    prefetcher

	windowPerCtx int
	// rr is the round-robin pointer every stage's sweep starts from. It
	// advances once per stepped cycle, after fetch, and wraps at MaxSMT.
	// rrFirst[rr] is the first context such a sweep visits: rr % active,
	// or 0 when that context holds no thread, since contexts at or past
	// used are empty and sweeps wrap at used, visiting the populated
	// contexts in the order a sweep over every active context would.
	// refreshRR rebuilds it whenever active or used changes.
	rr      int
	rrFirst []int

	// Stage bounds (DESIGN.md §6). A stage with nothing to do returns at
	// once, and the event engine's step reads the core's next event off
	// them: issueAt is at most every queue's max(nextReady, busyUntil),
	// retireAt is at most the completeAt of every context's issued head,
	// and dispBlocked means the last dispatch moved nothing while it held a
	// buffered context, which stays so until a retire, issue or fetch.
	// resetBounds drops them wherever the state they bound is reset.
	issueAt     int64
	retireAt    int64
	dispBlocked bool

	// classPorts[class] lists the ports eligible for class in ascending
	// index order — pickPort's scan order — precomputed from
	// arch.ClassPorts so dispatch does not re-test the port mask.
	classPorts [isa.NumClasses][]uint8

	// Event-engine bookkeeping (see engine.go). lastStepped is the last
	// cycle this core actually stepped; nextEvent is at most the earliest
	// future cycle at which stepping it could change state; busyEnd and
	// idleProbe cache the end-of-step anyBusy and probed-idle conditions.
	// idleExact is set when every probed-idle context reports ExactIdle, so
	// the run loop may skip the per-cycle re-probe and follow wake hints
	// instead.
	lastStepped int64
	nextEvent   int64
	busyEnd     bool
	idleProbe   bool
	idleExact   bool

	// Counters (see counters.Snapshot for semantics).
	dispHeldCycles uint64
	retired        uint64
	retiredByClass [isa.NumClasses]uint64
	issuedByPort   []uint64
	hitsByLevel    [mem.NumLevels]uint64
}

func newCore(d *arch.Desc, chip *Chip) *Core {
	c := &Core{
		arch:         d,
		chip:         chip,
		ports:        make([]portQueue, d.NumPorts),
		pred:         branch.New(d.BranchBits, d.MaxSMT),
		l1:           mem.NewCache(d.Mem.L1Size, d.Mem.L1Ways, d.Mem.LineSize),
		l2:           mem.NewCache(d.Mem.L2Size, d.Mem.L2Ways, d.Mem.LineSize),
		issuedByPort: make([]uint64, d.NumPorts),
	}
	for p := range c.ports {
		c.ports[p].init(d.PortQueueCap)
	}
	for class := range c.classPorts {
		mask := d.ClassPorts[class]
		for p := 0; p < d.NumPorts; p++ {
			if mask.Has(p) {
				c.classPorts[class] = append(c.classPorts[class], uint8(p))
			}
		}
	}
	c.rrFirst = make([]int, d.MaxSMT)
	c.contexts = make([]*Context, d.MaxSMT)
	for i := range c.contexts {
		c.contexts[i] = &Context{core: c, localID: i}
		c.contexts[i].reset(nil)
	}
	c.setSMT(1)
	return c
}

// setSMT activates the first level contexts and repartitions the window.
//
// The window is capped at histSize-256 so that a producer's history slot
// is never refilled while a consumer waits on it: the consumer is in the
// window, its producers at most 255 instructions (the largest uint8
// distance) behind it, so a refill would need a window of at least
// histSize-255. A refill would hand the waiting consumer the new
// occupant's completeAt when it wakes, and that is a lost wakeup. No
// shipped window reaches the cap: the largest are 256 (GenericSMT8 at
// SMT1, and POWER7 with its window doubled).
func (c *Core) setSMT(level int) {
	c.active = level
	c.windowPerCtx = min(c.arch.WindowPerContext(level), histSize-256)
	c.refreshRR()
	c.resetBounds()
}

// refreshRR rebuilds rrFirst for the current active and used counts.
func (c *Core) refreshRR() {
	for rr := range c.rrFirst {
		if s := rr % c.active; s < c.used {
			c.rrFirst[rr] = s
		} else {
			c.rrFirst[rr] = 0
		}
	}
}

// resetBounds sets the stage bounds so that each stage runs on its next
// call, which recomputes them.
func (c *Core) resetBounds() {
	c.issueAt, c.retireAt = 0, 0
	c.dispBlocked = false
}

// resetState clears microarchitectural and counter state.
func (c *Core) resetState() {
	for p := range c.ports {
		q := &c.ports[p]
		q.head, q.n, q.busyUntil, q.nextReady = 0, 0, 0, unknownCycle
	}
	c.pred.Reset()
	c.l1.Reset()
	c.l2.Reset()
	c.pf.reset()
	c.rr = 0
	c.resetBounds()
	c.lastStepped, c.nextEvent = 0, 0
	c.busyEnd, c.idleProbe, c.idleExact = false, false, false
	c.dispHeldCycles = 0
	c.retired = 0
	c.retiredByClass = [isa.NumClasses]uint64{}
	for i := range c.issuedByPort {
		c.issuedByPort[i] = 0
	}
	c.hitsByLevel = [mem.NumLevels]uint64{}
}

// accessMem walks the memory hierarchy for a demand access and returns the
// load-use latency. Shared-region addresses on a multi-chip machine may be
// homed on a remote chip, adding a cross-chip penalty and consuming the
// remote channel's bandwidth (the NUMA effect of the paper's two-chip
// experiments). L1 misses train the stream prefetcher, and demand accesses
// that catch an in-flight prefetched line pay only its remaining latency.
func (c *Core) accessMem(addr uint64, shared bool, now int64) int {
	d := &c.arch.Mem
	if c.l1.Access(addr) {
		c.hitsByLevel[mem.LevelL1]++
		return d.L1Lat
	}

	line := lineOf(addr, d.LineSize)
	if c.pf.note(line) {
		c.prefetchAhead(line, shared, now)
	}

	if slot := c.pf.lookup(line); slot >= 0 {
		pl := &c.pf.inflight[slot]
		c.pf.Useful++
		if pl.readyAt <= now {
			// Prefetch already landed: treat as an L2 hit.
			c.pf.drop(slot)
			c.l2.Insert(addr)
			c.l1.Insert(addr)
			c.hitsByLevel[mem.LevelL2]++
			return d.L2Lat
		}
		// Still in flight: pay the remaining latency.
		remaining := int(pl.readyAt - now)
		c.pf.drop(slot)
		c.l2.Insert(addr)
		c.l1.Insert(addr)
		c.hitsByLevel[mem.LevelMem]++
		if remaining < d.L2Lat {
			remaining = d.L2Lat
		}
		return remaining
	}

	if c.l2.Access(addr) {
		c.l1.Insert(addr)
		c.hitsByLevel[mem.LevelL2]++
		return d.L2Lat
	}
	if c.chip.l3.Access(addr) {
		c.l2.Insert(addr)
		c.l1.Insert(addr)
		c.hitsByLevel[mem.LevelL3]++
		return d.L3Lat
	}
	c.l2.Insert(addr)
	c.l1.Insert(addr)
	c.hitsByLevel[mem.LevelMem]++

	home, penalty := c.homeChannel(addr, shared)
	return d.L3Lat + home.Access(now, addr) + penalty
}

// dramHomeShift interleaves shared memory across chips at 4 KiB granularity.
const dramHomeShift = 12

// stepRetire completes in-order retirement for the cycle and recomputes
// retireAt from the heads it leaves.
func (c *Core) stepRetire(now int64) {
	if c.retireAt > now {
		return
	}
	budget := c.arch.RetireWidth
	next := int64(unknownCycle)
	j := c.rrFirst[c.rr]
	for i := 0; i < c.used; i++ {
		ctx := c.contexts[j]
		if j++; j == c.used {
			j = 0
		}
		for ctx.head < ctx.tail {
			e := &ctx.entries[ctx.head&histMask]
			if e.state != entryIssued {
				break
			}
			if e.completeAt > now || budget == 0 {
				next = min(next, e.completeAt)
				break
			}
			c.retired++
			c.retiredByClass[e.class]++
			ctx.head++
			budget--
		}
	}
	c.retireAt = next
	if budget < c.arch.RetireWidth {
		c.dispBlocked = false
	}
}

// stepIssue issues at most one instruction per free port: the oldest in
// queue order whose ready cycle has come. A queue whose nextReady is in the
// future holds none. One pass over a free queue finds that ref and the
// smallest ready cycle of the refs that stay, which becomes nextReady
// before the issue's wakes lower it; the pass also recomputes issueAt.
func (c *Core) stepIssue(now int64) {
	if c.issueAt > now {
		return
	}
	c.issueAt = unknownCycle
	for p := range c.ports {
		q := &c.ports[p]
		if max(q.nextReady, q.busyUntil) <= now {
			refs, mask, head, n := q.refs, q.mask, q.head, q.n
			rest := int64(unknownCycle)
			at := 0
			for ; at < n; at++ {
				r := refs[(head+at)&mask].ready
				if r <= now {
					break
				}
				rest = min(rest, r)
			}
			for i := at + 1; i < n; i++ {
				rest = min(rest, refs[(head+i)&mask].ready)
			}
			q.nextReady = rest
			if at < n {
				r := refs[(head+at)&mask]
				q.removeAt(at)
				ctx := c.contexts[r.ctx]
				c.issue(ctx, &ctx.entries[r.slot], p, now)
				c.dispBlocked = false
			}
		}
		c.issueAt = min(c.issueAt, max(q.nextReady, q.busyUntil))
	}
}

// issue executes one instruction on port p at cycle now.
func (c *Core) issue(ctx *Context, e *entry, p int, now int64) {
	c.issuedByPort[p]++

	// Extra-port consumption (Nehalem store-data port fires with the
	// store-address port).
	if extra := c.arch.ExtraPorts[e.class]; extra != 0 {
		for xp := 0; xp < c.arch.NumPorts; xp++ {
			if extra.Has(xp) {
				c.issuedByPort[xp]++
				if c.ports[xp].busyUntil < now+1 {
					c.ports[xp].busyUntil = now + 1
				}
			}
		}
	}

	lat := c.arch.Latency[e.class]
	switch e.class {
	case isa.Load:
		lat = c.accessMem(e.addr, e.shared, now)
	case isa.Store:
		// The store updates the cache and consumes bandwidth on a miss,
		// but drains through the store queue: dependents (and retire)
		// only wait one cycle.
		c.accessMem(e.addr, e.shared, now)
		lat = 1
	case isa.FPDiv:
		// The divider is not pipelined: hold the port.
		c.ports[p].busyUntil = now + int64(lat)
	case isa.IntMul:
		c.ports[p].busyUntil = now + 2
	}

	e.state = entryIssued
	e.completeAt = now + int64(lat)
	c.retireAt = min(c.retireAt, e.completeAt)

	// Wake the consumers this was the last wait of.
	for w := e.waiters; w != 0; {
		slot := int64(w-1) >> 1
		we := &ctx.entries[slot]
		w = we.links[(w-1)&1]
		if we.pending--; we.pending == 0 {
			c.wake(ctx, we, slot)
		}
	}

	if e.mispredict {
		// The frontend resumes fetching down the correct path a redirect
		// penalty after the branch resolves.
		ctx.fetchStallUntil = e.completeAt + int64(c.arch.MispredictPenalty)
		ctx.fetchBlocked = false
	}
}

// wake writes the exact ready cycle of a waiting entry whose producers
// have all issued, the latest of their completeAt, into its ref in its
// port queue and into that queue's nextReady and the core's issueAt. A
// dep2 may be present without a dep1.
func (c *Core) wake(ctx *Context, e *entry, slot int64) {
	ready := int64(0)
	if e.dep1 >= 0 {
		ready = ctx.entries[e.dep1&histMask].completeAt
	}
	if e.dep2 >= 0 {
		ready = max(ready, ctx.entries[e.dep2&histMask].completeAt)
	}
	q := &c.ports[e.port]
	for i := 0; i < q.n; i++ {
		if r := &q.refs[(q.head+i)&q.mask]; int64(r.slot) == slot && int(r.ctx) == ctx.localID {
			r.ready = ready
			break
		}
	}
	q.nextReady = min(q.nextReady, ready)
	c.issueAt = min(c.issueAt, ready)
}

// await resolves operand which (0 for dep1, 1 for dep2) of entry e, being
// dispatched at seq, dist instructions back (0 for none). It returns the
// producer's sequence number, -1 for none, and the cycle the operand is
// ready: 0 for none, the producer's completeAt once it has issued, and
// unknownCycle for a producer still waiting, whose waiter list e joins.
func (ctx *Context) await(e *entry, seq int64, dist uint8, which int) (int64, int64) {
	dep := seq - int64(dist)
	if dist == 0 || dep < 0 {
		return -1, 0
	}
	d := &ctx.entries[dep&histMask]
	if d.state == entryIssued {
		return dep, d.completeAt
	}
	e.links[which] = d.waiters
	d.waiters = waiterNode(seq&histMask, which)
	e.pending++
	return dep, unknownCycle
}

// stepDispatch moves instructions from fetch buffers into the window and
// port queues, recording a held cycle when resources block it. Arbitration
// is one instruction per context per sweep (ICOUNT-style balance): an SMT
// frontend must not let one thread flood the shared issue queues, or its
// siblings starve behind a wall of not-yet-ready instructions. While
// dispBlocked holds, the sweep would move nothing again, so only the held
// cycle is counted.
func (c *Core) stepDispatch(now int64) {
	if c.dispBlocked {
		c.dispHeldCycles++
		return
	}
	budget := c.arch.DispatchWidth
	held := false
	start := c.rrFirst[c.rr]
	progress := true
	for budget > 0 && progress {
		progress = false
		j := start
		for i := 0; i < c.used && budget > 0; i++ {
			ctx := c.contexts[j]
			if j++; j == c.used {
				j = 0
			}
			if ctx.fbLen == 0 {
				continue
			}
			if ctx.windowLen() >= c.windowPerCtx {
				held = true
				continue
			}
			inst := &ctx.fetchBuf[ctx.fbHead]
			port := c.pickPort(inst.Class)
			if port < 0 {
				held = true
				continue
			}
			seq := ctx.tail
			e := &ctx.entries[seq&histMask]
			e.addr = inst.Addr
			e.class = inst.Class
			e.state = entryWaiting
			e.completeAt = unknownCycle
			e.mispredict = ctx.fetchMispredict[ctx.fbHead]
			e.shared = inst.SharedAddr
			e.waiters, e.pending, e.port = 0, 0, uint8(port)
			var ready1, ready2 int64
			e.dep1, ready1 = ctx.await(e, seq, inst.Dep1, 0)
			e.dep2, ready2 = ctx.await(e, seq, inst.Dep2, 1)
			ctx.tail++
			ready := max(ready1, ready2)
			c.ports[port].push(portRef{ready: ready, slot: uint16(seq & histMask), ctx: uint8(ctx.localID)})
			c.issueAt = min(c.issueAt, ready)
			ctx.fbHead = (ctx.fbHead + 1) % fetchBufCap
			ctx.fbLen--
			budget--
			progress = true
		}
	}
	if held {
		c.dispHeldCycles++
		c.dispBlocked = budget == c.arch.DispatchWidth
	}
}

// pickPort selects the eligible port with the most queue headroom, or -1 if
// every eligible queue is full. Headroom is measured against the ring size
// (the power-of-two rounding of the architectural capacity), matching the
// historical behavior the golden artifacts pin.
func (c *Core) pickPort(class isa.Class) int {
	best, bestFree := -1, 0
	for _, p := range c.classPorts[class] {
		free := len(c.ports[p].refs) - c.ports[p].n
		if free > bestFree {
			best, bestFree = int(p), free
		}
	}
	return best
}

// stepFetch pulls instructions from sources into fetch buffers, running the
// branch predictor as branches enter the pipeline. It is the cycle's last
// stage, so it advances the round-robin pointer.
func (c *Core) stepFetch(now int64) {
	for _, ctx := range c.contexts[:c.used] {
		ctx.fetchedThisCycle = false
		ctx.sawIdleThisCycle = false
	}
	budget := c.arch.FetchWidth
	threads := c.arch.FetchThreads
	j := c.rrFirst[c.rr]
	if c.rr++; c.rr == c.arch.MaxSMT {
		c.rr = 0
	}
	for i := 0; i < c.used && budget > 0 && threads > 0; i++ {
		ctx := c.contexts[j]
		if j++; j == c.used {
			j = 0
		}
		if ctx.done || ctx.fetchBlocked || now < ctx.fetchStallUntil || ctx.fbLen == fetchBufCap {
			continue
		}
		took := 0
		for budget > 0 && ctx.fbLen < fetchBufCap && !ctx.fetchBlocked {
			slot := (ctx.fbHead + ctx.fbLen) % fetchBufCap
			st := ctx.src.Fetch(now, &ctx.fetchBuf[slot])
			if st == isa.FetchDone {
				ctx.done = true
				break
			}
			if st == isa.FetchIdle {
				ctx.sawIdleThisCycle = true
				break
			}
			inst := &ctx.fetchBuf[slot]
			mis := false
			if inst.Class == isa.Branch {
				mis = c.pred.Predict(ctx.localID, inst.Addr, inst.Taken)
				if mis {
					ctx.fetchBlocked = true
				}
			}
			ctx.fetchMispredict[slot] = mis
			ctx.fbLen++
			budget--
			took++
		}
		if took > 0 {
			ctx.fetchedThisCycle = true
			c.dispBlocked = false
			threads--
		}
	}
}

// endCycle performs busy accounting and finish detection; it returns the
// number of contexts that finished this cycle.
func (c *Core) endCycle(now int64) int {
	finished := 0
	for i := 0; i < c.used; i++ {
		ctx := c.contexts[i]
		if ctx.finished {
			continue
		}
		asleep := false
		if ctx.windowLen() == 0 && ctx.fbLen == 0 && !ctx.fetchedThisCycle && !ctx.done {
			if ctx.sawIdleThisCycle {
				asleep = true
			} else if ctx.waker != nil {
				// The context was not probed this cycle (fetch
				// arbitration); ask the source whether it is sleeping.
				asleep = ctx.waker.WakeHint(now) > now
			}
		}
		if !asleep {
			ctx.busyCycles++
		}
		if ctx.done && ctx.windowLen() == 0 && ctx.fbLen == 0 {
			ctx.finished = true
			finished++
		}
	}
	return finished
}

// anyBusy reports whether any active context did work this cycle or has
// in-flight instructions.
func (c *Core) anyBusy() bool {
	for i := 0; i < c.used; i++ {
		ctx := c.contexts[i]
		if ctx.finished {
			continue
		}
		if ctx.fetchedThisCycle || ctx.windowLen() > 0 || ctx.fbLen > 0 {
			return true
		}
	}
	return false
}
