package workload

import (
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// Address-space layout: each thread's private region and the process-wide
// shared region live at fixed, non-overlapping bases. Lock words used by
// spin loops live in their own region (see sched).
const (
	privRegionBase  = uint64(1) << 33
	privRegionSpan  = uint64(1) << 33 // per-thread stride between regions
	sharedRegionTag = uint64(1) << 46
)

// threadRegionBase returns the start of a thread's private data region. The
// base is skewed by a thread-dependent, line-aligned offset: allocators
// never hand threads identically-aligned arenas, and perfectly aligned
// bases would make every thread's working set collide in the same cache
// sets.
func threadRegionBase(threadID int) uint64 {
	skew := (xrand.Mix64(uint64(threadID)) & 0x3fff) << 7
	return privRegionBase + uint64(threadID)*privRegionSpan + skew
}

// branchSites is the number of static branch PCs each thread cycles
// through; a handful of sites lets the gshare predictor learn biased sites
// while entropy still produces mispredictions.
const branchSites = 8

// genTables holds the immutable per-thread half of a generator: everything
// derived from (spec, threadID) once at compile time, plus the thread's
// generator seed. One genTables value is shared — strictly read-only — by
// every blockGen stamped from the same compiled Program, which is what lets
// a Cache hand one Program to many concurrent instantiations. Nothing in
// this struct may be written after newGenTables returns.
//
// Every probability is held as its xrand.Threshold, so a draw is an
// integer compare that answers as Float64() < p would on the same draw:
// classK[c] for the class CDF at c, takenK[i] for branch site i's taken
// probability, and coldK, sharedK, chainK and crossK for the spec's
// ColdFrac, SharedFrac, ChainFrac and CrossDep.
type genTables struct {
	seed uint64 // per-thread generator seed, fixed at compile time

	classK                         [isa.NumClasses]uint64
	coldK, sharedK, chainK, crossK uint64

	// stride is the spec's StrideBytes (0 = random access).
	stride uint64

	privBase uint64
	privSize uint64
	sharedSz uint64

	sites  [branchSites]uint64
	takenK [branchSites]uint64

	nchains int
}

// blockGen generates the useful-work instructions of one thread according
// to its Spec. It implements sched.InstGen. The shape is a copy-on-write
// split: tab is the shared immutable compile-time half; every field below
// it is this instantiation's private mutable cursor state.
type blockGen struct {
	tab *genTables
	rng xrand.Rand

	pos       uint64 // cold stride cursor over the full working set
	hotPos    uint64 // hot stride cursor within the hot tile
	sharedPos uint64
	sharedHot uint64

	// Dependency-chain state: the stream position of the last instruction
	// emitted on each chain, and counters that rotate chain membership.
	pos64   int64 // dynamic instruction index
	lastPos [32]int64
	chainRR int
}

func newGenTables(spec *Spec, threadID int, seed uint64) *genTables {
	t := &genTables{
		seed:     seed,
		coldK:    xrand.Threshold(spec.ColdFrac),
		sharedK:  xrand.Threshold(spec.SharedFrac),
		chainK:   xrand.Threshold(spec.ChainFrac),
		crossK:   xrand.Threshold(spec.CrossDep),
		stride:   uint64(spec.StrideBytes),
		privBase: threadRegionBase(threadID),
		privSize: uint64(spec.WorkingSetKB) << 10,
		sharedSz: uint64(spec.SharedSetKB) << 10,
	}
	if t.privSize < 64 {
		t.privSize = 64
	}
	if t.sharedSz < 64 {
		t.sharedSz = 64
	}
	t.nchains = spec.Chains
	if t.nchains < 1 {
		t.nchains = 1
	}

	w := spec.Mix.weights()
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	acc := 0.0
	for c := range w {
		acc += w[c] / sum
		t.classK[c] = xrand.Threshold(acc)
	}
	t.classK[isa.NumClasses-1] = xrand.Threshold(1)

	// Branch sites: with entropy e, a site's taken-probability moves from
	// strongly biased 0.99 (about 1% mispredicted) to 0.91 (about 10%
	// mispredicted — the worst realistic data-dependent branching; the
	// paper's Fig. 2 branch-MPKI axis tops out around 12).
	e := spec.BranchEntropy
	for i := range t.sites {
		t.sites[i] = (uint64(threadID)<<20 | uint64(i)<<4) + 0x4000_0000_0000
		bias := 0.99 - 0.08*e
		if i%2 == 1 {
			bias = 1 - bias
		}
		t.takenK[i] = xrand.Threshold(bias)
	}
	return t
}

// newGen stamps a fresh mutable generator from the shared tables. Each call
// starts the identical deterministic stream: the RNG is re-seeded from the
// compile-time thread seed and every cursor starts at its zero position.
func (t *genTables) newGen() *blockGen {
	g := &blockGen{tab: t, rng: *xrand.New(t.seed)}
	for i := range g.lastPos {
		g.lastPos[i] = -1
	}
	return g
}

func newBlockGen(spec *Spec, threadID int, seed uint64) *blockGen {
	return newGenTables(spec, threadID, seed).newGen()
}

// class samples an instruction class from the mix.
func (g *blockGen) class() isa.Class {
	x := g.rng.Uint64() >> 11
	for c := isa.Class(0); c < isa.NumClasses-1; c++ {
		if x < g.tab.classK[c] {
			return c
		}
	}
	return isa.NumClasses - 1
}

// hotBytes caps the hot region (tile) of a working set.
const hotBytes = 8 << 10

// hotSize returns the hot-region size for a working set of the given size.
func hotSize(size uint64) uint64 {
	if size > hotBytes {
		return hotBytes
	}
	return size
}

// randOff returns a random offset into a working set of the given size,
// honouring the hot/cold locality split: real irregular codes concentrate
// most accesses on a hot subset (current tree path, top of heap, hot
// objects); ColdFrac is the fraction that wanders the full set.
func (g *blockGen) randOff(size uint64) uint64 {
	if g.tab.coldK > 0 && !g.rng.Below(g.tab.coldK) {
		return g.rng.Uint64n(hotSize(size)) &^ 7
	}
	return g.rng.Uint64n(size) &^ 7
}

// strideOff advances one of two stride cursors: the hot cursor walks a
// cache-resident tile (the blocked/tiled reuse of dense kernels); the cold
// cursor streams over the full working set. ColdFrac again sets the split;
// ColdFrac 1 is a pure stream.
func (g *blockGen) strideOff(size uint64, cold, hot *uint64) uint64 {
	stride := g.tab.stride
	if g.tab.coldK > 0 && !g.rng.Below(g.tab.coldK) {
		*hot += stride
		if *hot >= hotSize(size) {
			*hot = 0
		}
		return *hot
	}
	*cold += stride
	if *cold >= size {
		*cold = 0
	}
	return *cold
}

// addr produces the next effective address and whether it is shared.
func (g *blockGen) addr() (uint64, bool) {
	if g.tab.sharedK > 0 && g.rng.Below(g.tab.sharedK) {
		var off uint64
		if g.tab.stride > 0 {
			off = g.strideOff(g.tab.sharedSz, &g.sharedPos, &g.sharedHot)
		} else {
			off = g.randOff(g.tab.sharedSz)
		}
		return sharedRegionTag + off, true
	}
	var off uint64
	if g.tab.stride > 0 {
		off = g.strideOff(g.tab.privSize, &g.pos, &g.hotPos)
	} else {
		off = g.randOff(g.tab.privSize)
	}
	return g.tab.privBase + off, false
}

// Gen implements sched.InstGen: it emits the next useful instruction.
func (g *blockGen) Gen(out *isa.Inst) {
	*out = isa.Inst{Class: g.class()}
	switch out.Class {
	case isa.Load, isa.Store:
		out.Addr, out.SharedAddr = g.addr()
	case isa.Branch:
		i := g.rng.Intn(branchSites)
		out.Addr = g.tab.sites[i]
		out.Taken = g.rng.Below(g.tab.takenK[i])
	}

	// Register dependencies: with probability ChainFrac the instruction
	// joins one of the thread's Chains dependency chains (round-robin),
	// depending on that chain's previous instruction. Chains bound the
	// thread's ILP independent of reorder-window size. Off-chain
	// instructions are independent fillers.
	i := g.pos64
	g.pos64++
	if g.tab.chainK > 0 && g.rng.Below(g.tab.chainK) {
		c := g.chainRR
		g.chainRR++
		if g.chainRR >= g.tab.nchains {
			g.chainRR = 0
		}
		if last := g.lastPos[c]; last >= 0 {
			d := i - last
			if d >= 1 && d <= isa.MaxDepDistance {
				out.Dep1 = uint8(d)
			}
		}
		g.lastPos[c] = i
		if g.tab.crossK > 0 && g.rng.Below(g.tab.crossK) {
			o := (c + 1 + g.rng.Intn(maxInt(g.tab.nchains-1, 1))) % g.tab.nchains
			if last := g.lastPos[o]; last >= 0 && o != c {
				d := i - last
				if d >= 1 && d <= isa.MaxDepDistance {
					out.Dep2 = uint8(d)
				}
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// threadScript drives one thread's iteration structure: optional critical
// section, main compute, periodic barriers, Amdahl serial phases, and I/O
// sleeps. It implements sched.Script.
type threadScript struct {
	inst     *Instance
	threadID int
	gen      *blockGen

	iter, iters int64
	step        int
}

// Iteration steps, in order.
const (
	stepLockAcquire = iota
	stepCrit
	stepLockRelease
	stepMain
	stepBarrier
	stepSerialEnter // barrier before the serial phase
	stepSerialWork  // thread 0 runs the serial section
	stepSerialExit  // barrier after the serial phase
	stepSleep
	stepAdvance
)

// next is the iteration state machine's one transition: from position
// (iter, step) it finds the next segment the thread runs and the position
// after it, or ok false once the thread's work is done. It mutates nothing,
// so NextSegment commits it and ComputeLookahead walks it.
func (ts *threadScript) next(iter int64, step int) (seg sched.Segment, nextIter int64, nextStep int, ok bool) {
	sp := ts.inst.Spec
	for iter < ts.iters {
		switch step {
		case stepLockAcquire:
			if sp.LockEvery > 0 && iter%int64(sp.LockEvery) == 0 {
				return sched.Segment{Kind: sched.SegLockAcquire, Lock: ts.inst.lock}, iter, stepCrit, true
			}
			// No lock this iteration: skip the critical section too.
			step = stepMain
		case stepCrit:
			return sched.Segment{Kind: sched.SegCompute, N: int64(sp.CritLen), Gen: ts.gen}, iter, stepLockRelease, true
		case stepLockRelease:
			return sched.Segment{Kind: sched.SegLockRelease, Lock: ts.inst.lock}, iter, stepMain, true
		case stepMain:
			n := int64(sp.IterLen)
			if sp.LockEvery > 0 && iter%int64(sp.LockEvery) == 0 {
				n -= int64(sp.CritLen)
			}
			if n > 0 {
				return sched.Segment{Kind: sched.SegCompute, N: n, Gen: ts.gen}, iter, stepBarrier, true
			}
			step = stepBarrier
		case stepBarrier:
			if sp.BarrierEvery > 0 && (iter+1)%int64(sp.BarrierEvery) == 0 {
				return sched.Segment{Kind: sched.SegBarrier, Barrier: ts.inst.barrier}, iter, stepSerialEnter, true
			}
			step = stepSerialEnter
		case stepSerialEnter:
			if sp.SerialEvery > 0 && (iter+1)%int64(sp.SerialEvery) == 0 {
				return sched.Segment{Kind: sched.SegBarrier, Barrier: ts.inst.barrier}, iter, stepSerialWork, true
			}
			step = stepSleep
		case stepSerialWork:
			if ts.threadID == 0 {
				return sched.Segment{Kind: sched.SegCompute, N: int64(sp.SerialLen), Gen: ts.gen}, iter, stepSerialExit, true
			}
			step = stepSerialExit
		case stepSerialExit:
			return sched.Segment{Kind: sched.SegBarrier, Barrier: ts.inst.barrier}, iter, stepSleep, true
		case stepSleep:
			if sp.SleepEvery > 0 && (iter+1)%int64(sp.SleepEvery) == 0 {
				return sched.Segment{Kind: sched.SegSleep, N: sp.SleepCycles}, iter, stepAdvance, true
			}
			step = stepAdvance
		case stepAdvance:
			iter++
			step = stepLockAcquire
		}
	}
	return sched.Segment{}, iter, step, false
}

// NextSegment implements sched.Script by committing one transition.
func (ts *threadScript) NextSegment(seg *sched.Segment) (ok bool) {
	*seg, ts.iter, ts.step, ok = ts.next(ts.iter, ts.step)
	return ok
}

// ComputeLookahead implements sched's computeLookahead extension: it walks
// the transitions from the thread's current position without committing
// them, counting the compute instructions guaranteed to be emitted before
// any segment whose outcome depends on runtime state. A lock release
// passes (it emits nothing and never idles); the walk stops at a lock
// acquire (acquisition may spin or block), a barrier, a sleep, or the end
// of the thread's work.
func (ts *threadScript) ComputeLookahead(max int64) int64 {
	var n int64
	iter, step := ts.iter, ts.step
	for n < max {
		seg, i, s, ok := ts.next(iter, step)
		if !ok {
			break
		}
		switch seg.Kind {
		case sched.SegCompute:
			n += seg.N
		case sched.SegLockRelease:
		default:
			return n
		}
		iter, step = i, s
	}
	return min(n, max)
}
