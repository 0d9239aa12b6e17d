package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/workload"
)

// Probe batching: the batch-admission window upgraded from deduplication to
// aggregation. Coalescing (coalesce.go) merges IDENTICAL analyze requests
// into one flight; batching additionally drains the DISTINCT flights that
// open within one admission window — different workloads, same machine
// shape — into one controller.Prober.ProbeBatch pass, which simulates all
// variants concurrently on disjoint chip groups of a single machine
// (cpu.RunBatch). A scoring burst of B candidate workloads then costs one
// batched pass instead of B serial simulations.
//
// Shape of the path: every flight leader that reaches the probe step joins
// a batch group keyed by (arch, chips). The first joiner is the group's
// opener; it holds the group open for the coalesce window (or until
// MaxBatch variants have joined), seals it, runs the batched pass under its
// own context — the same precedent the coalescing window sets, where the
// flight leader's context bounds the shared probe — and fans each variant's
// result out to its flight leader. Late arrivals after the seal open the
// next group.
//
// Determinism contract, inherited from cpu.RunBatch: batching changes who
// simulates, never what. Each variant's result is bit-identical to the solo
// probe a batchless server would have run, so responses are byte-identical
// whether a burst was batched, coalesced, or served one by one
// (TestBatchedAnalyzeMatchesSolo pins this end to end).

// probeBatchFunc runs one batched probe pass; swapped by tests.
type probeBatchFunc func(ctx context.Context, d *arch.Desc, chips int, items []controller.BatchItem) ([]controller.BatchResult, error)

// batchItem is one flight leader's variant parked in a batch group. The
// opener fills res/err and closes done; the owner reads them only after
// done is closed.
type batchItem struct {
	spec *workload.Spec
	seed uint64
	res  controller.ProbeResult
	err  error
	done chan struct{}
}

// batchGroup collects the variants of one (arch, chips) shape admitted
// within one window.
type batchGroup struct {
	items  []*batchItem
	sealed bool
	// full is closed when the group reaches MaxBatch, releasing the opener
	// from the rest of its window.
	full chan struct{}
}

// batcher tracks the open batch group per machine shape.
type batcher struct {
	mu     sync.Mutex
	max    int
	groups map[string]*batchGroup
}

func newBatcher(max int) *batcher {
	return &batcher{max: max, groups: make(map[string]*batchGroup)}
}

// batchProbe is the probe step of a flight leader on a batching server: it
// replaces the plain window-sleep-then-probe sequence of runProbe.
// The caller already holds a worker slot and has passed the breaker gate,
// exactly as for a solo probe.
func (s *Server) batchProbe(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
	// Scheduled faults fire per flight leader, before the join, so an
	// injected failure degrades one request without poisoning the group.
	if err := s.cfg.Faults.Inject(ctx, fault.OpProbe); err != nil {
		return controller.ProbeResult{}, err
	}
	s.met.probes.Add(1)

	key := fmt.Sprintf("%s|%d", d.Name, chips)
	it := &batchItem{spec: spec, seed: seed, done: make(chan struct{})}
	s.batch.mu.Lock()
	g := s.batch.groups[key]
	opener := false
	if g == nil || g.sealed {
		g = &batchGroup{full: make(chan struct{})}
		s.batch.groups[key] = g
		opener = true
	}
	g.items = append(g.items, it)
	if len(g.items) >= s.batch.max {
		// Full house: seal immediately so the opener stops waiting out its
		// window and the next arrival opens a fresh group.
		g.sealed = true
		delete(s.batch.groups, key)
		close(g.full)
	}
	s.batch.mu.Unlock()

	if !opener {
		s.met.batched.Add(1)
		select {
		case <-it.done:
			return it.res, it.err
		case <-ctx.Done():
			// This request gives up on the pass; the opener still runs its
			// variant and the result is simply unclaimed. The error keeps
			// the context sentinel so the pipeline classifies it exactly
			// like an abandoned solo probe.
			return controller.ProbeResult{}, fmt.Errorf("batched probe abandoned: %w", ctx.Err())
		}
	}

	// Opener: hold the admission window open for more variants, unless the
	// group fills (or this request's deadline dies) first.
	if win := s.cfg.CoalesceWindow; win > 0 {
		t := time.NewTimer(win)
		select {
		case <-t.C:
		case <-g.full:
		case <-ctx.Done():
		}
		t.Stop()
	}
	s.batch.mu.Lock()
	if !g.sealed {
		g.sealed = true
		if s.batch.groups[key] == g {
			delete(s.batch.groups, key)
		}
	}
	items := g.items
	s.batch.mu.Unlock()

	citems := make([]controller.BatchItem, len(items))
	for i, m := range items {
		citems[i] = controller.BatchItem{Spec: m.spec, Seed: m.seed}
	}
	s.met.batches.Add(1)
	results, err := s.probeBatch(ctx, d, chips, citems)
	for i, m := range items {
		if err != nil {
			// Setup failure (or cancellation before the pass): every
			// variant inherits it and degrades individually.
			m.err = err
		} else {
			m.res = results[i].ProbeResult
			m.err = results[i].Err
		}
		close(m.done)
	}
	return it.res, it.err
}
