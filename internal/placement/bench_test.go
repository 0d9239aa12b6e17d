package placement

import (
	"context"
	"testing"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/cpu"
)

// BenchmarkPlace measures one uncached /v1/place computation as a shard
// runs it: the README's mix (two library benchmarks by name, two threads
// each, anti-affinity keeping the first one's threads apart) on a pooled
// Engine. Every iteration draws a new seed, so each op co-simulates both
// candidate pairs afresh.
func BenchmarkPlace(b *testing.B) {
	eng := &Engine{Pool: cpu.NewPool(1)}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := Resolve(arch.POWER7(), 1, api.PlaceRequest{
			Seed: uint64(i) + 1,
			Workloads: []api.PlaceWorkload{
				{Name: "ep", Bench: "EP", Threads: 2},
				{Name: "cg", Bench: "CG", Threads: 2},
			},
			AntiAffinity: []api.AffinityRule{{A: "ep", B: "ep"}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Place(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}
