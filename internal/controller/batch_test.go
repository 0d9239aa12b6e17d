package controller

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// batchSpecs builds three distinct fast variants of the tiny probe spec.
func batchSpecs() []BatchItem {
	a := tinySpec()
	b := tinySpec()
	b.Name = "probe-tiny-chains"
	b.ChainFrac = 0.6
	c := tinySpec()
	c.Name = "probe-tiny-mem"
	c.WorkingSetKB = 512
	c.Mix = workload.Mix{Load: 0.45, Store: 0.15, Branch: 0.1, Int: 0.3}
	return []BatchItem{{Spec: a, Seed: 11}, {Spec: b, Seed: 12}, {Spec: c, Seed: 13}}
}

// TestProbeBatchMatchesSolo pins the batch probe contract: each variant of
// a batched probe returns a ProbeResult bit-identical to a solo Probe of
// the same variant on a machine of the same per-variant size.
func TestProbeBatchMatchesSolo(t *testing.T) {
	d := arch.POWER7()
	items := batchSpecs()
	batch, err := (&Prober{}).ProbeBatch(context.Background(), d, 1, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(items) {
		t.Fatalf("got %d results for %d items", len(batch), len(items))
	}
	for i, it := range items {
		solo, err := (&Prober{}).Probe(context.Background(), d, 1, it.Spec, it.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Err != nil {
			t.Fatalf("%s: batch err %v", it.Spec.Name, batch[i].Err)
		}
		if !reflect.DeepEqual(batch[i].ProbeResult, solo) {
			t.Errorf("%s: batch probe diverges from solo:\nbatch: %+v\nsolo:  %+v",
				it.Spec.Name, batch[i].ProbeResult, solo)
		}
	}
}

// TestProbeBatchOfOneDegenerates pins the B=1 case to the solo path.
func TestProbeBatchOfOneDegenerates(t *testing.T) {
	d := arch.POWER7()
	pool := cpu.NewPool(2)
	items := []BatchItem{{Spec: tinySpec(), Seed: 42}}
	batch, err := (&Prober{Pool: pool}).ProbeBatch(context.Background(), d, 1, items)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := (&Prober{Pool: pool}).Probe(context.Background(), d, 1, tinySpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch[0].ProbeResult, solo) {
		t.Fatalf("batch of one diverges from solo probe:\nbatch: %+v\nsolo:  %+v",
			batch[0].ProbeResult, solo)
	}
}

// TestProbeBatchValidation covers the setup-error paths.
func TestProbeBatchValidation(t *testing.T) {
	d := arch.POWER7()
	if _, err := (&Prober{}).ProbeBatch(context.Background(), d, 1, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := (&Prober{}).ProbeBatch(context.Background(), d, 0, batchSpecs()); err == nil {
		t.Error("non-positive chips accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Prober{}).ProbeBatch(ctx, d, 1, batchSpecs()); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled batch err = %v, want context.Canceled", err)
	}
}

// TestProbeBatchPartialOnCancel: cancellation mid-batch leaves every
// variant with a partial observation and a wrapped cancellation error.
func TestProbeBatchPartialOnCancel(t *testing.T) {
	items := batchSpecs()
	for i := range items {
		long := *items[i].Spec
		long.TotalWork = 500_000_000
		items[i].Spec = &long
	}
	batch, err := (&Prober{}).ProbeBatch(newCancelAtFirstPoll(), arch.POWER7(), 1, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		if !errors.Is(r.Err, context.Canceled) || !errors.Is(r.Err, cpu.ErrCanceled) {
			t.Errorf("item %d err = %v, want ErrCanceled wrapping context.Canceled", i, r.Err)
		}
		if r.Snapshot.Retired == 0 {
			t.Errorf("item %d reported no partial progress", i)
		}
		if !r.Metric.Finite() {
			t.Errorf("item %d partial metric not finite: %+v", i, r.Metric)
		}
	}
}
