package placement

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// testSpec builds a tiny deterministic workload the simulator finishes
// fast; the mix skew differentiates pair scores.
func testSpec(name string, loadWeight float64) *workload.Spec {
	return &workload.Spec{
		Name: name, Mix: workload.Mix{Int: 1, Load: loadWeight},
		Chains: 1, WorkingSetKB: 4, TotalWork: 40_000, IterLen: 100,
	}
}

func testRequest() api.PlaceRequest {
	return api.PlaceRequest{
		Seed: 7,
		Workloads: []api.PlaceWorkload{
			{Name: "cpu", Spec: testSpec("cpu", 0), Threads: 2},
			{Name: "mem", Spec: testSpec("mem", 2), Threads: 2},
			{Name: "mix", Spec: testSpec("mix", 1)},
		},
		AntiAffinity: []api.AffinityRule{{A: "cpu", B: "mem"}},
	}
}

// permuted returns the same request with workload order, anti-affinity
// rule orientation and defaulted fields spelled differently.
func permutedRequest() api.PlaceRequest {
	return api.PlaceRequest{
		Seed:  7,
		Chips: 1, // explicit default
		Workloads: []api.PlaceWorkload{
			{Name: "mix", Spec: testSpec("mix", 1), Threads: 1},
			{Name: "mem", Spec: testSpec("mem", 2), Threads: 2},
			{Name: "cpu", Spec: testSpec("cpu", 0), Threads: 2},
		},
		AntiAffinity: []api.AffinityRule{{A: "mem", B: "cpu"}, {A: "cpu", B: "mem"}},
	}
}

func resolveT(t *testing.T, req api.PlaceRequest) *Input {
	t.Helper()
	in, err := Resolve(arch.POWER7(), 1, req)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return in
}

func placeT(t *testing.T, in *Input) api.PlaceResponse {
	t.Helper()
	eng := &Engine{Pool: cpu.NewPool(1)}
	resp, err := eng.Place(context.Background(), in)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	return resp
}

// TestCanonicalPermutationInvariance: two semantically identical requests
// that differ in workload order, rule orientation/duplication and
// defaulted fields must canonicalize to the same bytes — the property the
// server's cache key and the router's shard key rely on.
func TestCanonicalPermutationInvariance(t *testing.T) {
	a, err := resolveT(t, testRequest()).Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	b, err := resolveT(t, permutedRequest()).Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical forms differ:\n%s\n%s", a, b)
	}
}

// TestPlacePermutationInvariance is the solver property test: permuting
// the request's input order must not change a single byte of the
// response.
func TestPlacePermutationInvariance(t *testing.T) {
	r1 := placeT(t, resolveT(t, testRequest()))
	r2 := placeT(t, resolveT(t, permutedRequest()))
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("permuted input changed the placement:\n%s\n%s", b1, b2)
	}
}

// TestPlaceDeterministicAcrossRuns: fresh engines (fresh pools) must
// reproduce the response byte for byte.
func TestPlaceDeterministicAcrossRuns(t *testing.T) {
	b1, _ := json.Marshal(placeT(t, resolveT(t, testRequest())))
	b2, _ := json.Marshal(placeT(t, resolveT(t, testRequest())))
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two runs of the same request differ:\n%s\n%s", b1, b2)
	}
}

// TestPlaceHonorsConstraints checks the assignment invariants: every
// thread placed exactly once, per-core occupancy within MaxPerCore, and
// no anti-affinity pair sharing a core.
func TestPlaceHonorsConstraints(t *testing.T) {
	req := testRequest()
	req.MaxPerCore = 2
	in := resolveT(t, req)
	resp := placeT(t, in)

	placed := map[string]int{}
	for _, a := range resp.Assignments {
		if len(a.Threads) > resp.MaxPerCore {
			t.Errorf("core %d/%d holds %d threads, cap %d", a.Chip, a.Core, len(a.Threads), resp.MaxPerCore)
		}
		onCore := map[string]bool{}
		for _, name := range a.Threads {
			placed[name]++
			onCore[name] = true
		}
		if onCore["cpu"] && onCore["mem"] {
			t.Errorf("anti-affinity violated on core %d/%d: %v", a.Chip, a.Core, a.Threads)
		}
	}
	want := map[string]int{"cpu": 2, "mem": 2, "mix": 1}
	for name, n := range want {
		if placed[name] != n {
			t.Errorf("workload %s: placed %d threads, want %d", name, placed[name], n)
		}
	}
	// The anti pair must not be scored either: it can never co-locate.
	for _, p := range resp.PairScores {
		if (p.A == "cpu" && p.B == "mem") || (p.A == "mem" && p.B == "cpu") {
			t.Errorf("anti-affinity pair was scored: %+v", p)
		}
	}
	if resp.SMTLevel != arch.POWER7().MaxSMT {
		t.Errorf("SMTLevel = %d, want %d", resp.SMTLevel, arch.POWER7().MaxSMT)
	}
}

// TestSolverInfeasible: a self-anti-affinity rule that forces more cores
// than the machine has must surface ErrInfeasible, not a bogus placement.
func TestSolverInfeasible(t *testing.T) {
	req := api.PlaceRequest{
		Workloads: []api.PlaceWorkload{
			{Name: "solo", Spec: testSpec("solo", 0), Threads: 9}, // POWER7 chip: 8 cores
		},
		AntiAffinity: []api.AffinityRule{{A: "solo", B: "solo"}},
	}
	in := resolveT(t, req)
	eng := &Engine{}
	_, err := eng.Place(context.Background(), in)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestResolveErrors pins the validation surface the server maps to 400.
func TestResolveErrors(t *testing.T) {
	base := func() api.PlaceRequest { return testRequest() }
	cases := []struct {
		name string
		mut  func(*api.PlaceRequest)
		want string
	}{
		{"no workloads", func(r *api.PlaceRequest) { r.Workloads = nil }, "at least one"},
		{"bad chips", func(r *api.PlaceRequest) { r.Chips = -1 }, "chips"},
		{"bad maxPerCore", func(r *api.PlaceRequest) { r.MaxPerCore = 99 }, "maxPerCore"},
		{"empty name", func(r *api.PlaceRequest) { r.Workloads[0].Name = "" }, "name is required"},
		{"duplicate name", func(r *api.PlaceRequest) { r.Workloads[1].Name = r.Workloads[0].Name }, "duplicate"},
		{"bench and spec", func(r *api.PlaceRequest) { r.Workloads[0].Bench = "EP" }, "not both"},
		{"unknown bench", func(r *api.PlaceRequest) {
			r.Workloads[0].Bench = "nope"
			r.Workloads[0].Spec = nil
		}, "unknown bench"},
		{"neither bench nor spec", func(r *api.PlaceRequest) { r.Workloads[0].Spec = nil }, "one of bench or spec"},
		{"negative threads", func(r *api.PlaceRequest) { r.Workloads[0].Threads = -2 }, "threads"},
		{"capacity", func(r *api.PlaceRequest) { r.Workloads[0].Threads = 1000 }, "capacity"},
		{"chips over the limit", func(r *api.PlaceRequest) { r.Chips = 100_000_000 }, "exceeds the limit"},
		// The two counts sum past the largest int; summed unchecked, the
		// total wraps negative and slips under the capacity bound.
		{"threads overflowing the total", func(r *api.PlaceRequest) {
			r.Workloads[0].Threads = 1 << 62
			r.Workloads[1].Threads = 1 << 62
		}, "capacity"},
		{"unknown anti workload", func(r *api.PlaceRequest) {
			r.AntiAffinity = []api.AffinityRule{{A: "cpu", B: "ghost"}}
		}, "unknown workload"},
		{"invalid spec", func(r *api.PlaceRequest) { r.Workloads[0].Spec.TotalWork = 0 }, "non-positive work"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := base()
			tc.mut(&req)
			_, err := Resolve(arch.POWER7(), 1, req)
			if err == nil {
				t.Fatalf("Resolve accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBenchWorkloads: built-in Table-I benchmarks resolve by name and
// place cleanly.
func TestBenchWorkloads(t *testing.T) {
	req := api.PlaceRequest{
		Workloads: []api.PlaceWorkload{
			{Name: "a", Bench: "EP", Threads: 2},
			{Name: "b", Bench: "EP"},
		},
	}
	in := resolveT(t, req)
	resp := placeT(t, in)
	if len(resp.PairScores) == 0 {
		t.Fatalf("no pair scores for bench mix")
	}
}

// TestPartialOnCancel: an expired context mid-scoring still yields a
// solved placement alongside the context error — the raw material of the
// server's Warning-199 degraded path.
func TestPartialOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := resolveT(t, testRequest())
	eng := &Engine{}
	resp, err := eng.Place(ctx, in)
	if err == nil {
		t.Fatalf("Place succeeded under a canceled context")
	}
	if len(resp.Assignments) == 0 {
		t.Fatalf("canceled Place returned no assignments; want a constraint-only placement")
	}
	if len(resp.PairScores) != 0 {
		t.Fatalf("canceled-before-scoring Place reported %d pair scores", len(resp.PairScores))
	}
}
