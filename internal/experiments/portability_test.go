package experiments

import (
	"context"
	"slices"
	"testing"

	"repro/internal/workload"
)

func TestSMT8SystemValid(t *testing.T) {
	d := SMT8OneChip.Arch()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.MaxSMT != 8 || !d.SupportsSMT(8) {
		t.Fatal("SMT8 model must expose SMT8")
	}
}

// TestPortabilityBenchmarksResolve checks that every portability benchmark
// is in the workload library and that both portability rows plot that
// list on the SMT8 system, reading the metric at SMT8.
func TestPortabilityBenchmarksResolve(t *testing.T) {
	for _, b := range PortabilityBenchmarks {
		if _, err := workload.Get(b); err != nil {
			t.Error(err)
		}
	}
	for _, f := range []Figure{smt8v1, smt8v4} {
		if f.Sys.Name != SMT8OneChip.Name || f.MetricAt != 8 || f.Hi != 8 {
			t.Errorf("%s: system %s, metric @SMT%d, hi SMT%d; want %s, 8, 8", f.ID, f.Sys.Name, f.MetricAt, f.Hi, SMT8OneChip.Name)
		}
		if !slices.Equal(f.Benches, PortabilityBenchmarks) {
			t.Errorf("%s plots %v, want PortabilityBenchmarks", f.ID, f.Benches)
		}
	}
}

func TestPortabilityStudy(t *testing.T) {
	skipHeavySim(t)
	f := smt8v1
	// A reduced set keeps this test to tens of seconds.
	f.Benches = []string{"EP", "Blackscholes", "Stream", "SPECjbb_contention", "SSCA2", "Swim"}
	res := f.Run(context.Background(), NewMatrix(f.Sys, DefaultSeed))
	if len(res.Points) != 6 {
		t.Fatalf("%d points, want 6", len(res.Points))
	}
	if res.Accuracy < 0.8 {
		t.Fatalf("SMT8 portability success rate %.2f, want >= 0.8", res.Accuracy)
	}
}
