package workload

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/xrand"
)

// Program is a workload compiled for a fixed (spec, thread count, seed)
// triple: the validated spec plus every per-thread table the generator
// derives from it — class CDF, address-region layout, branch-site biases,
// and the per-thread RNG seeds. A Program is IMMUTABLE once Compile
// returns; Instantiate stamps fresh mutable run state (scheduler runtime,
// RNG cursors) against the shared tables, so any number of concurrent
// simulations can share one Program without copying or locking it.
//
// Program.Instantiate is bit-identical to the package-level Instantiate for
// the same triple: the instruction streams, lock/barrier structure and
// iteration counts are byte-for-byte the same.
type Program struct {
	spec       Spec // private deep copy: callers cannot mutate a compiled program
	numThreads int
	iters      int64
	threads    []*genTables
}

// Compile validates spec and builds the immutable compiled form for
// numThreads threads and the given seed. The per-thread seed chain and all
// derived tables match what Instantiate has always computed.
func Compile(spec *Spec, numThreads int, seed uint64) (*Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if numThreads <= 0 {
		return nil, fmt.Errorf("workload %s: non-positive thread count", spec.Name)
	}
	p := &Program{spec: *spec, numThreads: numThreads}
	perThread := p.spec.TotalWork / int64(numThreads)
	p.iters = perThread / int64(p.spec.IterLen)
	if p.iters < 1 {
		p.iters = 1
	}
	sm := xrand.NewSplitMix64(seed ^ xrand.Mix64(xrand.HashString(p.spec.Name)))
	p.threads = make([]*genTables, numThreads)
	for i := 0; i < numThreads; i++ {
		p.threads[i] = newGenTables(&p.spec, i, sm.Next())
	}
	return p, nil
}

// Instantiate stamps a fresh runnable Instance from the compiled program:
// a new scheduler runtime with the spec's lock/barrier structure and one
// thread script per compiled thread, each with a freshly seeded generator.
// Every Instance from the same Program produces identical instruction
// streams; concurrent Instantiate calls are safe because the program is
// never written.
func (p *Program) Instantiate() *Instance {
	rt := sched.NewRuntime(p.numThreads)
	inst := &Instance{Spec: &p.spec, Runtime: rt, lock: -1, barrier: -1}
	if p.spec.LockEvery > 0 {
		inst.lock = rt.AddLock(p.spec.LockKind)
	}
	if p.spec.BarrierEvery > 0 || p.spec.SerialEvery > 0 {
		inst.barrier = rt.AddBarrier(p.spec.BarrierKind, p.numThreads)
	}
	for i, tab := range p.threads {
		script := &threadScript{inst: inst, threadID: i, iters: p.iters, gen: tab.newGen()}
		inst.Threads = append(inst.Threads, rt.NewThread(script))
	}
	return inst
}
