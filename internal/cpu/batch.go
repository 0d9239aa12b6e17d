package cpu

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/counters"
	"repro/internal/isa"
)

// This file implements batched simulation: B independent workload variants
// run through one engine pass of a single Machine, each variant on its own
// disjoint set of chips, each chip group on its own goroutine. The paper's
// advisor workflow — and the placement-scoring work it feeds (many candidate
// configurations probed per decision) — wants many small probes per second,
// and a batch amortizes machine construction and pool traffic over B
// variants while putting idle host cores to work.
//
// Correctness contract (pinned by TestRunBatch* and the race stage of CI):
//
//   - Isolation: a variant group simulates on its chips exactly as a solo
//     chipsPer-chip machine would, bit for bit. Cores, private caches, L3,
//     DRAM and branch state are per-chip already; the one piece of
//     machine-wide coupling — shared-address DRAM homing — is narrowed to
//     the group via Chip.part for the duration of the batch (homeChannel),
//     so address interleaving and NUMA penalties match a solo machine of
//     the group's size.
//   - Determinism: groups share no mutable state, so the simulation is
//     bit-identical at any GOMAXPROCS, including 1. The reduction (machine
//     clock, per-group snapshots) iterates groups in index order after all
//     goroutines join, so results never depend on scheduling.
//   - Sources must be group-local: a sched.Runtime (locks, barriers) or any
//     other mutable state shared by sources ACROSS groups would be raced.
//     workload.Instantiate builds one runtime per instantiation, so one
//     instantiation per group — as placement's pair scoring does —
//     satisfies this by construction.

// BatchResult is the outcome of one variant group of a RunBatch: the group's
// wall cycles, its counter snapshot (scoped to the group's chips, threads
// and clock, exactly as a solo machine's Counters would report), and the
// group's run error, if any.
type BatchResult struct {
	Wall     int64
	Snapshot counters.Snapshot
	Err      error
}

// RunBatch simulates len(groups) independent workload-variant groups in one
// pass, group g on the machine's chips [g*chipsPer, (g+1)*chipsPer), each
// group on its own goroutine. Within a group, thread i is placed on active
// context i core-major — the same placement RunContext uses — and the group
// runs under the machine's current engine and SMT level until its sources
// finish, maxCycles elapse (per group), or ctx is canceled.
//
// Results are indexed by group and carry per-group errors; a canceled or
// cycle-capped group still reports the partial counters it accumulated, as
// RunContext does. The machine clock advances to the latest group clock.
// Microarchitectural state is NOT reset, matching RunContext; borrow batch
// machines from a Pool (which scrubs on Get) for cold-state probes.
func (m *Machine) RunBatch(ctx context.Context, groups [][]isa.Source, chipsPer int, maxCycles int64) ([]BatchResult, error) {
	if m.running {
		return nil, errors.New("cpu: batch started while a run is in progress")
	}
	if chipsPer <= 0 {
		return nil, errors.New("cpu: non-positive chips per group")
	}
	if len(groups) == 0 {
		return nil, errors.New("cpu: no groups")
	}
	if need := len(groups) * chipsPer; need > len(m.chips) {
		return nil, fmt.Errorf("cpu: %d groups × %d chips exceed the machine's %d chips",
			len(groups), chipsPer, len(m.chips))
	}
	hwPer := chipsPer * m.desc.CoresPerChip * m.smtLevel
	total := 0
	for g, srcs := range groups {
		if len(srcs) == 0 {
			return nil, fmt.Errorf("cpu: group %d has no sources", g)
		}
		if len(srcs) > hwPer {
			return nil, fmt.Errorf("cpu: group %d has %d sources for %d hardware threads",
				g, len(srcs), hwPer)
		}
		total += len(srcs)
	}
	if maxCycles <= 0 {
		maxCycles = 1 << 40
	}
	m.running = true
	defer func() { m.running = false }()

	// Narrow each group's DRAM-homing partition to its own chips for the
	// duration of the batch, so the group homes shared addresses exactly as
	// a solo chipsPer-chip machine would (see homeChannel).
	for g := range groups {
		part := m.chips[g*chipsPer : (g+1)*chipsPer]
		for _, chip := range part {
			chip.part = part
		}
	}
	defer func() {
		for _, chip := range m.chips {
			chip.part = m.chips
		}
	}()

	// Placement. Contexts outside the batch are cleared, mirroring
	// RunContext; threadCtx holds the groups' threads concatenated in group
	// order, so a machine-wide Counters after the batch stays coherent.
	if cap(m.threadCtx) < total {
		m.threadCtx = make([]*Context, total)
	} else {
		m.threadCtx = m.threadCtx[:total]
	}
	m.activeCores = 0
	cpc := m.desc.CoresPerChip
	doms := make([]domain, len(groups))
	idx := 0
	for g, srcs := range groups {
		gi := idx
		lo, hi := g*chipsPer*cpc, (g+1)*chipsPer*cpc
		cores := m.cores[lo:hi]
		k := 0
		for _, core := range cores {
			core.used = 0
			for ci := 0; ci < core.active; ci++ {
				cc := core.contexts[ci]
				if k < len(srcs) {
					cc.reset(srcs[k])
					m.threadCtx[idx] = cc
					idx++
					k++
					core.used++
				} else {
					cc.reset(nil)
				}
			}
			for ci := core.active; ci < len(core.contexts); ci++ {
				core.contexts[ci].reset(nil)
			}
		}
		m.activeCores += (len(srcs) + m.smtLevel - 1) / m.smtLevel
		// The live list gets the group's own liveBuf slots, capped so no
		// group can grow into its neighbour's.
		doms[g] = domain{cores: cores, live: m.liveBuf[lo:hi:hi], threads: m.threadCtx[gi:idx], now: m.now}
	}
	for _, core := range m.cores[len(groups)*chipsPer*cpc:] {
		core.used = 0
		for _, cc := range core.contexts {
			cc.reset(nil)
		}
	}

	deadline := m.now + maxCycles
	res := make([]BatchResult, len(groups))
	var wg sync.WaitGroup
	for g := range doms {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var wall int64
			var err error
			if m.engine == EngineScan {
				wall, err = doms[g].runScan(ctx, len(groups[g]), deadline)
			} else {
				wall, err = doms[g].runEvent(ctx, len(groups[g]), deadline)
			}
			res[g].Wall, res[g].Err = wall, err
		}(g)
	}
	wg.Wait()

	// Deterministic reduction, in group-index order: each snapshot is scoped
	// to its group's chips, threads and domain clock, and the machine clock
	// advances to the latest domain clock.
	for g := range doms {
		active := (len(groups[g]) + m.smtLevel - 1) / m.smtLevel
		res[g].Snapshot = m.countersOver(
			m.chips[g*chipsPer:(g+1)*chipsPer], doms[g].threads, doms[g].now, active)
		if doms[g].now > m.now {
			m.now = doms[g].now
		}
	}
	return res, nil
}
