// Package controller implements the paper's Section V use-case: an online
// optimizer (user-level scheduler or application tuner) that samples the
// SMT-selection metric periodically and switches the system's SMT level to
// whatever the metric predicts is best for the running workload.
//
// The paper's key operational findings are baked into the policy:
//
//   - the metric is only trustworthy when measured at the *highest* SMT
//     level (Figs. 11-12 show it breaks down at SMT1), so the controller
//     probes at the maximum level and steps down from there;
//   - once below the maximum, the controller periodically re-probes at the
//     maximum level so that workload phase changes are noticed;
//   - hysteresis around the threshold prevents flapping for workloads whose
//     metric rides the boundary.
package controller

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/smtsm"
	"repro/internal/workload"
)

// Config tunes the controller policy.
type Config struct {
	// Threshold is the SMTsm value above which a lower SMT level is
	// preferred; calibrate it with the threshold package.
	Threshold float64
	// Hysteresis is the relative dead band around Threshold: the level
	// steps down only above Threshold×(1+Hysteresis) and back up only
	// below Threshold×(1−Hysteresis). Zero is allowed.
	Hysteresis float64
	// ProbeEvery forces a re-probe at the maximum SMT level after this
	// many intervals spent at a lower level (0 disables re-probing).
	ProbeEvery int
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Threshold <= 0 {
		return errors.New("controller: non-positive threshold")
	}
	if c.Hysteresis < 0 || c.Hysteresis >= 1 {
		return errors.New("controller: hysteresis out of [0,1)")
	}
	if c.ProbeEvery < 0 {
		return errors.New("controller: negative probe interval")
	}
	return nil
}

// Controller holds the decision state.
type Controller struct {
	cfg   Config
	desc  *arch.Desc
	level int
	// sinceProbe counts intervals since the controller last ran at the
	// maximum SMT level.
	sinceProbe int
}

// New builds a controller for the given architecture, starting at the
// architecture's maximum SMT level (the hardware default).
func New(d *arch.Desc, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, desc: d, level: d.MaxSMT}, nil
}

// Level returns the controller's current SMT-level choice.
func (c *Controller) Level() int { return c.level }

// lowerLevel returns the next exposed level below l (or l if none).
func (c *Controller) lowerLevel(l int) int {
	best := l
	for _, v := range c.desc.SMTLevels {
		if v < l && (best == l || v > best) {
			best = v
		}
	}
	return best
}

// Decision describes one controller step, for logging.
type Decision struct {
	Interval  int
	Level     int     // level the interval ran at
	Metric    float64 // SMTsm observed over the interval
	NextLevel int     // level chosen for the next interval
	Probe     bool    // next interval is a forced max-level probe
}

// Observe feeds the controller the counter delta of the interval that just
// ran at Level() and returns the decision for the next interval.
func (c *Controller) Observe(interval int, delta *counters.Snapshot) Decision {
	m := smtsm.Compute(c.desc, delta)
	d := Decision{Interval: interval, Level: c.level, Metric: m.Value, NextLevel: c.level}

	if c.level == c.desc.MaxSMT {
		c.sinceProbe = 0
		if m.Value > c.cfg.Threshold*(1+c.cfg.Hysteresis) {
			d.NextLevel = c.lowerLevel(c.level)
		}
	} else {
		c.sinceProbe++
		// Below the maximum level the metric cannot foresee contention
		// that more hardware threads would create (the paper's Fig. 11
		// result), so the controller only moves by re-probing at the
		// maximum level.
		if c.cfg.ProbeEvery > 0 && c.sinceProbe >= c.cfg.ProbeEvery {
			d.NextLevel = c.desc.MaxSMT
			d.Probe = true
			c.sinceProbe = 0
		} else if m.Value > c.cfg.Threshold*(1+c.cfg.Hysteresis) {
			// Still clearly past the threshold: consider an even lower
			// level if one exists.
			d.NextLevel = c.lowerLevel(c.level)
		}
	}
	c.level = d.NextLevel
	return d
}

// WorkSource supplies work in resizable chunks: each measurement interval
// the driver asks for the next chunk sized for however many hardware
// threads the current SMT level exposes. This models a malleable
// application (thread-pool server, OpenMP program between parallel regions)
// that re-sizes its thread count when the SMT level changes, as the paper's
// experiments do.
type WorkSource interface {
	// NextChunk returns the software threads for the next interval, or
	// ok=false when the work is exhausted.
	NextChunk(threads int) (srcs []isa.Source, ok bool)
}

// IntervalResult logs one adaptive-run interval.
type IntervalResult struct {
	Decision
	Wall    int64
	Retired uint64
}

// RunAdaptiveContext drives machine through src's work, one chunk per
// interval, consulting the controller between chunks. It returns the
// per-interval log and the total wall cycles.
//
// Cancellation is cooperative: the context is polled by the simulator
// during each interval and checked between intervals, so a serving layer
// can bound an adaptive run with a request deadline. On cancellation it
// returns the intervals completed so far together with the context's
// error.
func RunAdaptiveContext(ctx context.Context, m *cpu.Machine, ctrl *Controller, src WorkSource, maxCycles int64) ([]IntervalResult, int64, error) {
	// Adaptive runs log one entry per interval and real runs span dozens of
	// intervals; start with room for them so the steady state appends
	// without reallocating the log every few intervals.
	log := make([]IntervalResult, 0, 64)
	var total int64
	if err := m.SetSMTLevel(ctrl.Level()); err != nil {
		return nil, 0, err
	}
	prev := m.Counters()
	for interval := 0; ; interval++ {
		if err := ctx.Err(); err != nil {
			return log, total, err
		}
		srcs, ok := src.NextChunk(m.HardwareThreads())
		if !ok {
			break
		}
		wall, err := m.RunContext(ctx, srcs, maxCycles)
		if err != nil {
			return log, total, fmt.Errorf("interval %d: %w", interval, err)
		}
		total += wall
		snap := m.Counters()
		delta := snap.Delta(&prev)
		prev = snap
		dec := ctrl.Observe(interval, &delta)
		log = append(log, IntervalResult{Decision: dec, Wall: wall, Retired: delta.Retired})
		if dec.NextLevel != m.SMTLevel() {
			if err := m.SetSMTLevel(dec.NextLevel); err != nil {
				return log, total, err
			}
		}
	}
	return log, total, nil
}

// ProbeResult is the outcome of one measured run — a max-SMT-level probe,
// a pair co-run, an experiment cell: the wall time, the counter snapshot,
// and the metric breakdown computed from it. It carries everything an
// advisor needs to issue a recommendation.
type ProbeResult struct {
	// WallCycles is the run's simulated wall-clock time.
	WallCycles int64
	// Snapshot is the cumulative counter snapshot after the run.
	Snapshot counters.Snapshot
	// Metric is the SMT-selection metric evaluated on the snapshot.
	Metric smtsm.Breakdown
	// UsefulInstrs and SpinInstrs split the instructions the run's threads
	// retired into real work and lock spinning.
	UsefulInstrs, SpinInstrs int64
}

// Part is one workload of a measured run: Spec instantiated with Threads
// software threads (0 means one per hardware thread at the machine's SMT
// level) from Seed.
type Part struct {
	Spec    *workload.Spec
	Threads int
	Seed    uint64
}

// Measure is the one measured run every caller shares: it instantiates the
// parts in order, runs all their threads on m (RunContext places thread i
// on hardware context i, core-major) for at most maxCycles (0 means no
// cap), and computes the SMT-selection metric from the counters. m must be
// in the state to be measured: freshly built, from a pool, or Reset.
//
// ctx is checked once before simulating, because a short run can finish
// before the simulator's first poll; a done context, like a part that does
// not instantiate, fails with a zero result. A run cut by ctx or maxCycles
// returns what it measured up to the cut alongside the error.
func Measure(ctx context.Context, m *cpu.Machine, parts []Part, maxCycles int64) (ProbeResult, error) {
	if err := ctx.Err(); err != nil {
		return ProbeResult{}, err
	}
	insts := make([]*workload.Instance, len(parts))
	var srcs []isa.Source
	for i, p := range parts {
		threads := p.Threads
		if threads == 0 {
			threads = m.HardwareThreads()
		}
		inst, err := workload.Instantiate(p.Spec, threads, p.Seed)
		if err != nil {
			return ProbeResult{}, err
		}
		insts[i] = inst
		srcs = append(srcs, inst.Sources()...)
	}
	wall, err := m.RunContext(ctx, srcs, maxCycles)
	res := ProbeResult{WallCycles: wall, Snapshot: m.Counters()}
	res.Metric = smtsm.Compute(m.Arch(), &res.Snapshot)
	for _, inst := range insts {
		res.UsefulInstrs += inst.UsefulInstrs()
		res.SpinInstrs += inst.SpinInstrs()
	}
	return res, err
}

// Prober runs max-SMT probes, reusing simulated machines from Pool when it
// is set; a zero Prober builds a machine per call. The results are
// bit-identical either way.
type Prober struct {
	Pool *cpu.Pool
}

// Probe measures spec at the architecture's maximum SMT level — the only
// level at which the paper shows the metric is trustworthy — under ctx, and
// returns the counter snapshot and metric breakdown. The machine comes from
// p.Pool when present. The context is polled cooperatively by the
// simulator, so a caller can bound the probe with a deadline or cancel it
// when a client disconnects.
//
// Cancellation mirrors cpu.Machine.RunContext: alongside the context's
// error, Probe returns the PARTIAL result measured up to the interruption
// — the wall cycles simulated so far, the counter snapshot at that point,
// and the metric computed over it — instead of discarding completed work.
// Callers that can tolerate an approximate answer (the advisor's degraded
// path) inspect the partial snapshot; callers that cannot simply honour
// the error.
func (p *Prober) Probe(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (ProbeResult, error) {
	m, err := p.Pool.Get(d, chips)
	if err != nil {
		return ProbeResult{}, err
	}
	defer p.Pool.Put(m)
	res, err := Measure(ctx, m, []Part{{Spec: spec, Seed: seed}}, 0)
	if err != nil && res.WallCycles > 0 {
		// The run itself was cut: name the probe, and hand the partial
		// observation up with the error.
		return res, fmt.Errorf("probe %s@SMT%d: %w", spec.Name, m.SMTLevel(), err)
	}
	return res, err
}
