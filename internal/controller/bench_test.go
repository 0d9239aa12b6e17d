package controller

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// probeScale shortens the benchmarked library spec as the analyze-cold
// serving mix does: a sixteenth of the instructions over the library's
// iteration count, with the same lock, barrier and sleep cadence.
const probeScale = 16

// BenchmarkProbe measures one uncached /v1/analyze computation as a shard
// runs it: a shortened library spec probed at the maximum SMT level on a
// pooled Prober. Every iteration draws a new seed, as distinct requests do.
func BenchmarkProbe(b *testing.B) {
	lib, err := workload.Get("Streamcluster")
	if err != nil {
		b.Fatal(err)
	}
	spec := *lib
	spec.TotalWork /= probeScale
	spec.IterLen = max(1, spec.IterLen/probeScale)
	if spec.LockEvery > 0 {
		spec.CritLen = max(1, spec.CritLen/probeScale)
	}
	spec.SleepCycles /= probeScale
	p := &Prober{Pool: cpu.NewPool(1)}
	d := arch.POWER7()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Probe(ctx, d, 1, &spec, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
