package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/smtsm"
	"repro/internal/workload"
)

// coalesceReq is one fixed analyze request: every test request below is
// byte-identical, so they all share one fingerprint key.
func coalesceReq() AnalyzeRequest {
	return AnalyzeRequest{
		Spec: &workload.Spec{
			Name: "coalesce", Mix: workload.Mix{Int: 1},
			Chains: 1, WorkingSetKB: 1, TotalWork: 50_000, IterLen: 100,
		},
		Seed: 7,
	}
}

// countingProbe returns a probeFunc that counts invocations and fabricates
// a deterministic result.
func countingProbe(calls *atomic.Int64) probeFunc {
	return func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		calls.Add(1)
		snap := highMetricSnapshot()
		return controller.ProbeResult{
			WallCycles: int64(snap.WallCycles),
			Snapshot:   snap,
			Metric:     smtsm.Compute(d, &snap),
		}, nil
	}
}

// serverVars fetches and decodes /debug/vars from a live test server.
func serverVars(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("decoding /debug/vars %q: %v", raw, err)
	}
	return vars
}

func varInt(t *testing.T, vars map[string]any, key string) int64 {
	t.Helper()
	v, ok := vars[key].(float64)
	if !ok {
		t.Fatalf("/debug/vars %q = %v (%T), want a number", key, vars[key], vars[key])
	}
	return int64(v)
}

// TestCoalesceBurstSharesOneProbe is the coalescing proof: 64 concurrent
// identical analyze requests perform exactly one probe. The leader's probe
// blocks until the other 63 have parked on its flight, so every request is
// accounted for as the leader or a coalesced waiter and none as a cache
// hit — verified through /debug/vars, under the race detector in CI.
func TestCoalesceBurstSharesOneProbe(t *testing.T) {
	s := newTestServer(t, testConfig())
	var calls atomic.Int64
	release := make(chan struct{})
	s.probe = gatedProbeFunc(&calls, "coalesce", make(chan struct{}, 1), release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(coalesceReq())
	if err != nil {
		t.Fatal(err)
	}
	const burst = 64
	var wg sync.WaitGroup
	recs := make([]Recommendation, burst)
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = errors.New(string(raw))
				return
			}
			errs[i] = json.Unmarshal(raw, &recs[i])
		}(i)
	}
	waitFor(t, "the burst to park on the leader's flight", func() bool {
		return s.met.coalesced.Load() == burst-1
	})
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("probe ran %d times for %d identical requests, want exactly 1", got, burst)
	}

	// The decision content must be identical across leader, waiters and
	// cache hits (Cached differs by construction, so mask it out).
	norm := func(r Recommendation) string {
		r.Cached = false
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := norm(recs[0])
	for i := range recs {
		if got := norm(recs[i]); got != want {
			t.Fatalf("request %d got a different recommendation:\n%s\nwant\n%s", i, got, want)
		}
	}

	vars := serverVars(t, ts.URL)
	probes := varInt(t, vars, "probes_total")
	coalesced := varInt(t, vars, "coalesced_total")
	hits := varInt(t, vars, "cache_hits")
	if probes != 1 || coalesced != burst-1 || hits != 0 {
		t.Fatalf("/debug/vars probes_total %d, coalesced_total %d, cache_hits %d; want 1, %d, 0",
			probes, coalesced, hits, burst-1)
	}
	if varInt(t, vars, "flights_in_flight") != 0 {
		t.Fatal("flights leaked: flights_in_flight != 0 after the burst drained")
	}
}

// TestCoalesceFanOutError pins the waiter-side failure fan-out: when the
// leader's probe fails organically, every coalesced waiter receives the
// probe_failed envelope from that single probe instead of probing again.
func TestCoalesceFanOutError(t *testing.T) {
	cfg := testConfig()
	cfg.CacheSize = -1 // no cache: every request must go through the flight
	s := newTestServer(t, cfg)
	var calls atomic.Int64
	release := make(chan struct{})
	s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		calls.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return controller.ProbeResult{}, ctx.Err()
		}
		return controller.ProbeResult{}, errors.New("simulator on fire")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(coalesceReq())
	if err != nil {
		t.Fatal(err)
	}
	const burst = 8
	codes := make([]string, burst)
	statuses := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var e api.Error
			//lint:ignore errlint a decode failure leaves the zero envelope, which the assertion below rejects
			_ = json.NewDecoder(resp.Body).Decode(&e)
			statuses[i] = resp.StatusCode
			codes[i] = e.Code
		}(i)
	}
	waitFor(t, "the burst to park on the leader's flight", func() bool {
		return s.met.coalesced.Load() == burst-1
	})
	close(release)
	wg.Wait()
	for i := range codes {
		if statuses[i] != http.StatusInternalServerError || codes[i] != api.CodeProbeFailed {
			t.Fatalf("request %d: status %d code %q, want 500 %q", i, statuses[i], codes[i], api.CodeProbeFailed)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("probe ran %d times for %d identical failing requests, want 1", got, burst)
	}
}
