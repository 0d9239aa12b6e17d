package controller

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// tinySpec is a fast-running workload for probe tests.
func tinySpec() *workload.Spec {
	return &workload.Spec{
		Name:         "probe-tiny",
		Mix:          workload.Mix{Load: 0.25, Store: 0.1, Branch: 0.15, Int: 0.4, FPVec: 0.1},
		Chains:       4,
		ChainFrac:    0.3,
		WorkingSetKB: 4,
		TotalWork:    200_000,
		IterLen:      1000,
	}
}

// cancelAtFirstPoll is a context canceled at the simulator's first context
// poll. Its Err stays nil — so the probe's up-front checks pass — until
// Done is first requested, which only the run loop does, after
// ctxCheckInterval simulated cycles. Cancelling there rather than after a
// wall-clock sleep guarantees partial progress however slow setup is.
type cancelAtFirstPoll struct {
	once sync.Once
	done chan struct{}
}

func newCancelAtFirstPoll() *cancelAtFirstPoll {
	return &cancelAtFirstPoll{done: make(chan struct{})}
}

func (c *cancelAtFirstPoll) Deadline() (time.Time, bool) { return time.Time{}, false }

func (c *cancelAtFirstPoll) Done() <-chan struct{} {
	c.once.Do(func() { close(c.done) })
	return c.done
}

func (c *cancelAtFirstPoll) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

func (c *cancelAtFirstPoll) Value(any) any { return nil }

func TestProbeComputesMetricAtMaxLevel(t *testing.T) {
	d := arch.POWER7()
	res, err := (&Prober{}).Probe(context.Background(), d, 1, tinySpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallCycles <= 0 {
		t.Fatalf("wall cycles %d", res.WallCycles)
	}
	if res.Snapshot.SMTLevel != d.MaxSMT {
		t.Fatalf("probe ran at SMT%d, want the maximum SMT%d", res.Snapshot.SMTLevel, d.MaxSMT)
	}
	if !res.Metric.Finite() {
		t.Fatalf("non-finite probe metric %+v", res.Metric)
	}
	// Determinism: the same seed reproduces the same observation, on a
	// fresh machine and on a pooled one that already probed another spec.
	pooled := &Prober{Pool: cpu.NewPool(1)}
	other := tinySpec()
	other.Name = "probe-tiny-mem"
	other.WorkingSetKB = 512
	if _, err := pooled.Probe(context.Background(), d, 1, other, 7); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Prober{{}, pooled} {
		res2, err := p.Probe(context.Background(), d, 1, tinySpec(), 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, res2) {
			t.Fatalf("probe not deterministic for a fixed seed (pooled %v):\nfirst:  %+v\nsecond: %+v",
				p.Pool != nil, res, res2)
		}
	}
}

func TestProbeHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (&Prober{}).Probe(ctx, arch.POWER7(), 1, tinySpec(), 42)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProbeReturnsPartialResult: a probe cut off mid-run hands back the
// interval data completed so far — wall cycles, snapshot, metric — next to
// the context error, mirroring cpu.Machine.RunContext semantics.
func TestProbeReturnsPartialResult(t *testing.T) {
	spec := tinySpec()
	spec.TotalWork = 500_000_000 // far more than the deadline allows
	res, err := (&Prober{}).Probe(newCancelAtFirstPoll(), arch.POWER7(), 1, spec, 42)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cpu.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res.WallCycles <= 0 {
		t.Fatalf("partial wall cycles %d, want > 0", res.WallCycles)
	}
	if res.Snapshot.Retired == 0 {
		t.Fatal("partial snapshot retired no instructions")
	}
	if res.Snapshot.WallCycles != res.WallCycles {
		t.Fatalf("snapshot wall %d != returned wall %d", res.Snapshot.WallCycles, res.WallCycles)
	}
	if !res.Metric.Finite() {
		t.Fatalf("partial metric not finite: %+v", res.Metric)
	}
}

func TestRunAdaptiveContextCancelled(t *testing.T) {
	m, err := cpu.NewMachine(arch.POWER7(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(arch.POWER7(), cfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &chunkSource{spec: tinySpec(), chunks: 4, seed: 1}
	log, _, err := RunAdaptiveContext(ctx, m, ctrl, src, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(log) != 0 {
		t.Fatalf("cancelled-before-start run logged %d intervals", len(log))
	}
}
