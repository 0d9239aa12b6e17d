package controller

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/smtsm"
	"repro/internal/workload"
)

// BatchItem is one workload variant of a batched probe.
type BatchItem struct {
	Spec *workload.Spec
	Seed uint64
}

// BatchResult pairs one variant's probe outcome with its error. A canceled
// or failed variant still carries the partial observation accumulated up to
// the interruption, exactly as Probe reports for a solo probe.
type BatchResult struct {
	ProbeResult
	Err error
}

// ProbeBatch probes len(items) workload variants in ONE batched simulation
// pass: a single machine of chips×len(items) chips is borrowed from p.Pool
// (or built), each variant runs on its own disjoint chips-chip group, and
// the groups simulate concurrently (cpu.Machine.RunBatch). Each variant's
// result — wall cycles, counter snapshot, metric breakdown — is
// bit-identical to a solo Probe of that variant on a chips-chip machine,
// at any GOMAXPROCS; a batch of one degenerates to exactly the solo path.
// Each variant's compiled workload comes from p.Cache when present, so
// repeated variants across batches — the common case for coalesced server
// flights replaying popular specs — share one immutable compiled Program
// and only stamp per-run state.
//
// Setup failures (no items, machine construction, instantiation) return a
// nil slice and an error; run errors are per-variant in BatchResult.Err.
// Cancellation via ctx interrupts every group and each reports its partial
// observation, mirroring Probe.
func (p *Prober) ProbeBatch(ctx context.Context, d *arch.Desc, chips int, items []BatchItem) ([]BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, errors.New("controller: empty probe batch")
	}
	if chips <= 0 {
		return nil, errors.New("controller: non-positive chips per variant")
	}
	var m *cpu.Machine
	var err error
	if p.Pool != nil {
		m, err = p.Pool.Get(d, chips*len(items))
	} else {
		m, err = cpu.NewMachine(d, chips*len(items))
	}
	if err != nil {
		return nil, err
	}
	if p.Pool != nil {
		defer p.Pool.Put(m)
	}
	// A pool Get can block behind other borrowers; re-check the deadline
	// before instantiating and simulating on the caller's budget.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Each group gets the hardware threads a solo chips-chip machine would
	// expose, and its own instantiation — sched state (locks, barriers) must
	// never be shared across groups (see cpu.RunBatch). Instances stamped
	// from one cached Program keep that property: only the compile-time
	// tables are shared, never runtime state.
	hwPer := m.HardwareThreads() / len(items)
	groups := make([][]isa.Source, len(items))
	for i, it := range items {
		inst, ierr := p.Cache.Instantiate(it.Spec, hwPer, it.Seed)
		if ierr != nil {
			return nil, fmt.Errorf("batch item %d (%s): %w", i, it.Spec.Name, ierr)
		}
		groups[i] = inst.Sources()
	}
	runRes, err := m.RunBatch(ctx, groups, chips, 0)
	if err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(items))
	for i, r := range runRes {
		out[i].ProbeResult = ProbeResult{
			WallCycles: r.Wall,
			Snapshot:   r.Snapshot,
			Metric:     smtsm.Compute(d, &r.Snapshot),
		}
		if r.Err != nil {
			out[i].Err = fmt.Errorf("probe %s@SMT%d: %w", items[i].Spec.Name, m.SMTLevel(), r.Err)
		}
	}
	return out, nil
}
