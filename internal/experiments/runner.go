package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// CellRef names one cell of a sweep.
type CellRef struct {
	Sys   string
	Bench string
	SMT   int
}

// Event reports the completion (or failure) of one cell during a sweep.
// Events are delivered in completion order; Seq counts them from 1 so a
// consumer can render "Seq/Total" progress.
type Event struct {
	Ref   CellRef
	Seq   int
	Total int
	// Elapsed is the wall-clock time this cell's simulation took (≈0 for
	// cells already cached in the matrix).
	Elapsed time.Duration
	// Cached reports that the cell was already present and no simulation
	// ran.
	Cached bool
	// Err is the cell's error, if any (unknown benchmark, cycle limit,
	// per-cell timeout, sweep cancellation).
	Err error
}

// Stats summarises a completed (or interrupted) sweep.
type Stats struct {
	// Cells is the number of cells the sweep completed (including cells
	// that were already cached); Failed counts those that finished with an
	// error; Skipped counts cells never attempted because the sweep was
	// canceled first.
	Cells   int
	Failed  int
	Skipped int
	// Workers is the pool size actually used.
	Workers int
	// Elapsed is the sweep's wall-clock duration; CellTime is the sum of
	// the individual cells' simulation times — what a serial replay of the
	// same work would have cost. Speedup() is their ratio.
	Elapsed  time.Duration
	CellTime time.Duration
}

// Speedup returns the wall-clock speedup over a serial replay of the same
// cells (CellTime / Elapsed); 0 when the sweep did no timed work.
func (s Stats) Speedup() float64 {
	if s.Elapsed <= 0 || s.CellTime <= 0 {
		return 0
	}
	return float64(s.CellTime) / float64(s.Elapsed)
}

// Runner fills matrix cells concurrently with a bounded worker pool.
//
// Concurrency changes only wall-clock time, never results: each cell is a
// self-contained simulation seeded from (matrix seed, benchmark, thread
// index), so the artifacts a sweep produces are bit-identical whether it
// runs on one worker or sixteen (the determinism tests assert exactly
// this across GOMAXPROCS settings).
//
// The zero value is a GOMAXPROCS-wide pool with no progress reporting.
// A cell's budget is its matrix's CellBudget: a cell that overruns it
// reports context.DeadlineExceeded in its Event and counts toward
// Stats.Failed; it is not cached, so a later sweep with a larger budget can
// retry it.
type Runner struct {
	// Workers bounds the pool; <= 0 means GOMAXPROCS.
	Workers int
	// OnEvent, when non-nil, observes each cell completion. Calls are
	// serialized by the runner; the callback must not call back into the
	// same Runner.
	OnEvent func(Event)
	// Now is the clock behind the timing fields (Stats.Elapsed,
	// Stats.CellTime, Event.Elapsed). Simulated results never depend on it —
	// this package is wall-clock-free by contract (detlint) — so it is nil
	// in library use and the timing fields stay zero; CLIs that want
	// progress timing inject time.Now.
	Now func() time.Time
}

// now reads the injected clock; the zero time when none is configured.
func (r *Runner) now() time.Time {
	if r.Now == nil {
		return time.Time{}
	}
	return r.Now()
}

// since measures elapsed time against the injected clock; 0 without one.
func (r *Runner) since(t0 time.Time) time.Duration {
	if r.Now == nil {
		return 0
	}
	return r.Now().Sub(t0)
}

// SweepSpec names one system's slice of a multi-system campaign.
type SweepSpec struct {
	Matrix  *Matrix
	Benches []string
	SMTs    []int
}

// Sweep fills every (bench, smt) cell of the matrix, at most r.Workers at a
// time, until done or ctx is canceled. It returns the sweep statistics and
// ctx.Err() if the sweep was cut short. Cells computed before cancellation
// stay cached in the matrix (partial results); cells whose own simulation
// was interrupted are reported failed but left uncached.
//
// One cell's failure never poisons the rest of the sweep: the error is
// recorded in that cell (and its Event) and every other cell still runs.
func (r *Runner) Sweep(ctx context.Context, m *Matrix, benches []string, smts []int) (Stats, error) {
	return r.Campaign(ctx, []SweepSpec{{Matrix: m, Benches: benches, SMTs: smts}})
}

// job is one unit of pool work: a cell bound to its matrix.
type job struct {
	m   *Matrix
	ref CellRef
}

// Campaign sweeps several systems' matrices through one shared worker pool,
// merging their statistics. The pool is shared across systems, so a small
// matrix does not leave workers idle while a large one still has cells
// queued. Cells dispatch in spec order; cancellation applies to the whole
// campaign.
func (r *Runner) Campaign(ctx context.Context, specs []SweepSpec) (Stats, error) {
	var queue []job
	for _, sp := range specs {
		for _, b := range sp.Benches {
			for _, s := range sp.SMTs {
				queue = append(queue, job{sp.Matrix, CellRef{Sys: sp.Matrix.Sys.Name, Bench: b, SMT: s}})
			}
		}
	}

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queue) {
		workers = len(queue)
	}
	stats := Stats{Workers: workers}
	if len(queue) == 0 {
		return stats, ctx.Err()
	}
	start := r.now()

	jobs := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards stats counters and event delivery order
	seq := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r.runCell(ctx, j, len(queue), &mu, &seq, &stats)
			}
		}()
	}

dispatch:
	for _, j := range queue {
		if ctx.Err() != nil {
			break
		}
		select {
		case jobs <- j:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	stats.Skipped = len(queue) - stats.Cells
	stats.Elapsed = r.since(start)
	return stats, ctx.Err()
}

// runCell computes one cell and publishes its Event and stats.
func (r *Runner) runCell(ctx context.Context, j job, total int, mu *sync.Mutex, seq *int, stats *Stats) {
	t0 := r.now()
	cached := j.m.peek(j.ref.Bench, j.ref.SMT)
	c := j.m.Cell(ctx, j.ref.Bench, j.ref.SMT)
	elapsed := r.since(t0)

	// Surface the bare context error of an interrupted run, so consumers
	// can tell a per-cell budget overrun from a sweep abort.
	err := c.Err
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		err = context.DeadlineExceeded
	case errors.Is(err, context.Canceled):
		err = context.Canceled
	}

	mu.Lock()
	defer mu.Unlock()
	*seq++
	stats.Cells++
	if err != nil {
		stats.Failed++
	}
	if !cached {
		stats.CellTime += elapsed
	}
	ev := Event{Ref: j.ref, Seq: *seq, Total: total, Elapsed: elapsed, Cached: cached, Err: err}
	if r.OnEvent != nil {
		r.OnEvent(ev)
	}
}

// peek reports whether a cell is already cached, without computing it.
func (m *Matrix) peek(bench string, smt int) bool {
	m.mu.Lock()
	e, ok := m.cells[cellKey(bench, smt)]
	m.mu.Unlock()
	if !ok {
		return false
	}
	// TryLock avoids blocking behind an in-flight computation: a cell being
	// computed right now is not yet cached from this observer's view.
	if !e.mu.TryLock() {
		return false
	}
	defer e.mu.Unlock()
	return e.c != nil
}
