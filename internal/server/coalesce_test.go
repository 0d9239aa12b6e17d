package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/placement"
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
// a deterministic result after holding the flight open for hold.
func countingProbe(calls *atomic.Int64, hold time.Duration) probeFunc {
	return func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		calls.Add(1)
		if hold > 0 {
			t := time.NewTimer(hold)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return controller.ProbeResult{}, ctx.Err()
			}
		}
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

// TestCoalesceBurstSharesOneProbe is the coalescing proof the issue pins:
// 64 concurrent identical analyze requests perform exactly one probe, with
// every request accounted for as the leader, a coalesced waiter or a cache
// hit — verified through /debug/vars, under the race detector in CI.
func TestCoalesceBurstSharesOneProbe(t *testing.T) {
	cfg := testConfig()
	cfg.CoalesceWindow = 50 * time.Millisecond
	s := newTestServer(t, cfg)
	var calls atomic.Int64
	s.probe = countingProbe(&calls, 20*time.Millisecond)
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
	if probes != 1 {
		t.Fatalf("/debug/vars probes_total = %d, want 1", probes)
	}
	// Every request resolves exactly one way: the probing leader, a
	// coalesced waiter, or a cache hit (first check or leader double-check).
	if probes+coalesced+hits != burst {
		t.Fatalf("probes(%d) + coalesced(%d) + cache_hits(%d) = %d, want %d",
			probes, coalesced, hits, probes+coalesced+hits, burst)
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
	cfg.CoalesceWindow = 50 * time.Millisecond
	cfg.CacheSize = -1 // no cache: every request must go through the flight
	s := newTestServer(t, cfg)
	var calls atomic.Int64
	probeErr := errors.New("simulator on fire")
	s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		return controller.ProbeResult{}, probeErr
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
	wg.Wait()
	for i := range codes {
		if statuses[i] != http.StatusInternalServerError || codes[i] != api.CodeProbeFailed {
			t.Fatalf("request %d: status %d code %q, want 500 %q", i, statuses[i], codes[i], api.CodeProbeFailed)
		}
	}
	// The whole burst shares at most a couple of probes (one per flight
	// generation); serialized stragglers may start a second flight, but the
	// coalescing must prevent anything near one probe per request.
	if got := calls.Load(); got > 2 {
		t.Fatalf("probe ran %d times for %d identical failing requests, want <= 2", got, burst)
	}
}

// TestCoalesceDisabled verifies the negative-window escape hatch: with
// coalescing off, concurrent identical requests each run their own probe.
func TestCoalesceDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.CoalesceWindow = -1
	cfg.CacheSize = -1
	s := newTestServer(t, cfg)
	var calls atomic.Int64
	s.probe = countingProbe(&calls, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(coalesceReq())
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			//lint:ignore errlint draining the body is connection hygiene; the status is the assertion
			_, _ = io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != n {
		t.Fatalf("probe ran %d times with coalescing disabled, want %d", got, n)
	}

	// /v1/place honours the same escape hatch: every identical placement
	// runs its own co-simulation and none is counted as coalesced.
	var placements atomic.Int64
	s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
		placements.Add(1)
		time.Sleep(10 * time.Millisecond) // long enough to overlap the burst
		return api.PlaceResponse{Arch: in.Desc.Name, Chips: in.Chips}, nil
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/place", "application/json", strings.NewReader(placeBodyA))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			//lint:ignore errlint draining the body is connection hygiene; the status is the assertion
			_, _ = io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("place status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if got := placements.Load(); got != n {
		t.Fatalf("placement ran %d times with coalescing disabled, want %d", got, n)
	}
	if got := s.met.placeCoalesced.Load(); got != 0 {
		t.Fatalf("place_coalesced_total = %d with coalescing disabled, want 0", got)
	}
}
