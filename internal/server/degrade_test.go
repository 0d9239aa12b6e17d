package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/smtsm"
	"repro/internal/workload"
)

// fakeClock is an injectable time source for breaker and cache tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := newBreaker(3, time.Minute)
	b.now = clk.now

	if b.stateName() != "closed" {
		t.Fatalf("initial state %q", b.stateName())
	}
	b.onFailure()
	b.onFailure()
	if !b.allow() || b.stateName() != "closed" {
		t.Fatal("breaker opened below threshold")
	}
	// A success resets the consecutive-failure count.
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if b.stateName() != "closed" {
		t.Fatal("failure count not reset by success")
	}
	b.onFailure()
	if b.stateName() != "open" {
		t.Fatalf("state %q after 3 consecutive failures, want open", b.stateName())
	}
	if b.allow() {
		t.Fatal("open breaker admitted a probe before cooldown")
	}
	if b.opens.Load() != 1 || b.denied.Load() != 1 {
		t.Fatalf("opens %d denied %d", b.opens.Load(), b.denied.Load())
	}

	// Cooldown elapses: exactly one half-open trial is admitted.
	clk.advance(time.Minute)
	if !b.allow() {
		t.Fatal("cooldown elapsed but trial refused")
	}
	if b.stateName() != "half-open" {
		t.Fatalf("state %q, want half-open", b.stateName())
	}
	if b.allow() {
		t.Fatal("second concurrent trial admitted in half-open")
	}
	// Failed trial re-trips and restarts the cooldown.
	b.onFailure()
	if b.stateName() != "open" || b.allow() {
		t.Fatal("failed trial did not re-open")
	}
	clk.advance(30 * time.Second)
	if b.allow() {
		t.Fatal("cooldown did not restart on re-trip")
	}
	clk.advance(30 * time.Second)
	if !b.allow() {
		t.Fatal("second trial refused after restarted cooldown")
	}
	// Successful trial closes the breaker fully.
	b.onSuccess()
	if b.stateName() != "closed" || !b.allow() {
		t.Fatal("successful trial did not close the breaker")
	}
}

func TestBreakerNeutralTrialReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := newBreaker(1, time.Minute)
	b.now = clk.now
	b.onFailure()
	clk.advance(time.Minute)
	if !b.allow() {
		t.Fatal("trial refused")
	}
	// The trial's client went away: inconclusive, so back to open with a
	// fresh cooldown rather than counting for or against the backend.
	b.onNeutral()
	if b.stateName() != "open" {
		t.Fatalf("state %q after neutral trial, want open", b.stateName())
	}
	clk.advance(59 * time.Second)
	if b.allow() {
		t.Fatal("cooldown not restarted by neutral trial")
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("trial refused after restarted cooldown")
	}
}

// failingProbe returns a probe stub that always fails with err and counts
// its calls on calls.
func failingProbe(err error, calls *int) probeFunc {
	return func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		*calls++
		return controller.ProbeResult{}, err
	}
}

// TestStaleWhileRevalidate ages a cached analyze answer past the TTL,
// breaks the probe, and verifies the stale entry is served marked degraded
// with the Warning header — then served fresh again after recovery.
func TestStaleWhileRevalidate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := testConfig()
	cfg.CacheTTL = 10 * time.Second
	s := newTestServer(t, cfg)
	s.cache.now = clk.now
	h := s.Handler()

	// Warm the cache through the real probe path.
	spec := &workload.Spec{
		Name: "tiny-int", Mix: workload.Mix{Int: 1},
		Chains: 1, WorkingSetKB: 1, TotalWork: 50_000, IterLen: 100,
	}
	req := AnalyzeRequest{Spec: spec, Seed: 11}
	w := postJSON(t, h, "/v1/analyze", req)
	if w.Code != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", w.Code, w.Body.String())
	}
	warm := decodeRec(t, w)

	// Still fresh: answered from cache, not degraded.
	w = postJSON(t, h, "/v1/analyze", req)
	rec := decodeRec(t, w)
	if !rec.Cached || rec.Degraded {
		t.Fatalf("fresh-window answer %+v, want cached and not degraded", rec)
	}

	// Age past the TTL and break the probe: stale-while-revalidate must
	// serve the old answer, marked.
	clk.advance(11 * time.Second)
	probeCalls := 0
	s.probe = failingProbe(errors.New("simulator on fire"), &probeCalls)
	w = postJSON(t, h, "/v1/analyze", req)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded status %d: %s", w.Code, w.Body.String())
	}
	rec = decodeRec(t, w)
	if !rec.Degraded || !rec.Cached {
		t.Fatalf("stale answer not marked degraded: %+v", rec)
	}
	if rec.RecommendedLevel != warm.RecommendedLevel || rec.Fingerprint != warm.Fingerprint {
		t.Fatalf("stale answer drifted from the cached one: %+v vs %+v", rec, warm)
	}
	if !strings.Contains(rec.Warning, "serving last known recommendation") {
		t.Fatalf("warning %q", rec.Warning)
	}
	if warn := w.Header().Get("Warning"); !strings.HasPrefix(warn, `110 smtservd `) {
		t.Fatalf("Warning header %q, want 110 (stale)", warn)
	}
	const staleReason = "probe failed (simulator on fire): serving last known recommendation"
	if rec.Warning != staleReason {
		t.Fatalf("warning %q, want exactly %q", rec.Warning, staleReason)
	}
	if warn, want := w.Header().Get("Warning"), `110 smtservd "`+staleReason+`"`; warn != want {
		t.Fatalf("Warning header %q, want exactly %q", warn, want)
	}
	if probeCalls != 1 {
		t.Fatalf("probe calls %d, want 1 (revalidation attempted)", probeCalls)
	}

	// The stale entry refreshes once the probe recovers.
	s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		return (&controller.Prober{Pool: s.pool}).Probe(ctx, d, chips, spec, seed)
	}
	w = postJSON(t, h, "/v1/analyze", req)
	rec = decodeRec(t, w)
	if rec.Degraded || rec.Cached {
		t.Fatalf("post-recovery answer %+v, want a fresh recomputation", rec)
	}

	if s.met.degraded.Load() != 1 || s.met.staleServed.Load() != 1 {
		t.Fatalf("degraded %d staleServed %d, want 1 and 1",
			s.met.degraded.Load(), s.met.staleServed.Load())
	}
}

// TestBreakerOpensAndServesStale trips the breaker with consecutive probe
// failures and verifies: stale-backed requests degrade to 200, bare
// requests get 503 breaker_open, and the probe is not called while open.
func TestBreakerOpensAndServesStale(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := testConfig()
	cfg.CacheTTL = time.Second
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Minute
	s := newTestServer(t, cfg)
	s.cache.now = clk.now
	s.brk.now = clk.now
	h := s.Handler()

	spec := &workload.Spec{
		Name: "tiny-int", Mix: workload.Mix{Int: 1},
		Chains: 1, WorkingSetKB: 1, TotalWork: 50_000, IterLen: 100,
	}
	cachedReq := AnalyzeRequest{Spec: spec, Seed: 21}
	if w := postJSON(t, h, "/v1/analyze", cachedReq); w.Code != http.StatusOK {
		t.Fatalf("warm-up status %d", w.Code)
	}
	clk.advance(2 * time.Second) // cached entry is now stale

	probeCalls := 0
	s.probe = failingProbe(errors.New("simulator on fire"), &probeCalls)

	// Two failures trip the breaker; both requests still degrade to the
	// stale answer.
	for i := 0; i < 2; i++ {
		w := postJSON(t, h, "/v1/analyze", cachedReq)
		if w.Code != http.StatusOK || !decodeRec(t, w).Degraded {
			t.Fatalf("failure %d: status %d body %s", i, w.Code, w.Body.String())
		}
	}
	if got := s.brk.stateName(); got != "open" {
		t.Fatalf("breaker %q after %d failures, want open", got, probeCalls)
	}

	// Open breaker, stale available: degraded 200 without touching the probe.
	before := probeCalls
	w := postJSON(t, h, "/v1/analyze", cachedReq)
	rec := decodeRec(t, w)
	if w.Code != http.StatusOK || !rec.Degraded {
		t.Fatalf("stale-backed status %d body %s", w.Code, w.Body.String())
	}
	if !strings.Contains(rec.Warning, "circuit breaker open") {
		t.Fatalf("warning %q", rec.Warning)
	}
	const breakerReason = "probe circuit breaker open: serving last known recommendation"
	if rec.Warning != breakerReason {
		t.Fatalf("warning %q, want exactly %q", rec.Warning, breakerReason)
	}
	if warn, want := w.Header().Get("Warning"), `110 smtservd "`+breakerReason+`"`; warn != want {
		t.Fatalf("Warning header %q, want exactly %q", warn, want)
	}
	if probeCalls != before {
		t.Fatal("open breaker still called the probe")
	}

	// Open breaker, nothing cached: 503 breaker_open with Retry-After.
	w = postJSON(t, h, "/v1/analyze", AnalyzeRequest{Spec: spec, Seed: 99})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("bare status %d, want 503", w.Code)
	}
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := decodeStrict(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("envelope: %v", err)
	}
	if env.Code != "breaker_open" || w.Header().Get("Retry-After") == "" {
		t.Fatalf("envelope %+v, Retry-After %q", env, w.Header().Get("Retry-After"))
	}

	// Cooldown elapses, the probe recovers: the half-open trial closes the
	// breaker and the answer is fresh again.
	clk.advance(time.Minute)
	s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		return (&controller.Prober{Pool: s.pool}).Probe(ctx, d, chips, spec, seed)
	}
	w = postJSON(t, h, "/v1/analyze", cachedReq)
	if rec := decodeRec(t, w); w.Code != http.StatusOK || rec.Degraded {
		t.Fatalf("post-recovery status %d rec %+v", w.Code, rec)
	}
	if got := s.brk.stateName(); got != "closed" {
		t.Fatalf("breaker %q after successful trial, want closed", got)
	}
}

// TestPartialProbeServed verifies a deadline-cut probe with usable partial
// counters is answered 200, marked degraded, with the 199 Warning header.
func TestPartialProbeServed(t *testing.T) {
	cfg := testConfig()
	cfg.CacheSize = -1 // no stale fallback: force the partial path
	s := newTestServer(t, cfg)
	h := s.Handler()

	s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		snap := highMetricSnapshot()
		res := controller.ProbeResult{
			WallCycles: int64(snap.WallCycles),
			Snapshot:   snap,
			Metric:     smtsm.Compute(d, &snap),
		}
		return res, fmt.Errorf("probe cut short: %w", context.DeadlineExceeded)
	}
	w := postJSON(t, h, "/v1/analyze", analyzeBody(31))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	rec := decodeRec(t, w)
	if !rec.Degraded || rec.Cached {
		t.Fatalf("partial answer %+v, want degraded and not cached", rec)
	}
	if !strings.Contains(rec.Warning, "partial probe") {
		t.Fatalf("warning %q", rec.Warning)
	}
	if warn := w.Header().Get("Warning"); !strings.HasPrefix(warn, `199 smtservd `) {
		t.Fatalf("Warning header %q, want 199", warn)
	}
	const partialReason = "partial probe: deadline expired after 10000 simulated cycles"
	if rec.Warning != partialReason {
		t.Fatalf("warning %q, want exactly %q", rec.Warning, partialReason)
	}
	if warn, want := w.Header().Get("Warning"), `199 smtservd "`+partialReason+`"`; warn != want {
		t.Fatalf("Warning header %q, want exactly %q", warn, want)
	}
	if !rec.LowerSMT {
		t.Fatalf("partial high-metric snapshot should still recommend lowering: %+v", rec)
	}
	if s.met.partialServed.Load() != 1 {
		t.Fatalf("partialServed %d, want 1", s.met.partialServed.Load())
	}
}

// TestCacheTTLZeroNeverDegrades pins the compatibility default: with
// CacheTTL 0 entries never go stale, so the degradation machinery is
// invisible on the happy path.
func TestCacheTTLZeroNeverDegrades(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newTestServer(t, testConfig())
	s.cache.now = clk.now
	h := s.Handler()

	req := MetricRequest{Snapshot: highMetricSnapshot()}
	if w := postJSON(t, h, "/v1/metric", req); w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	clk.advance(1000 * time.Hour)
	w := postJSON(t, h, "/v1/metric", req)
	rec := decodeRec(t, w)
	if !rec.Cached || rec.Degraded {
		t.Fatalf("TTL-less cache answer %+v, want plain cache hit", rec)
	}
	if s.met.degraded.Load() != 0 {
		t.Fatalf("degraded_total %d with CacheTTL 0", s.met.degraded.Load())
	}
}

// TestMetricStaleWhenSaturated: a /v1/metric request that holds a stale
// cache entry while every worker and queue slot is taken is answered from
// that entry — 200, degraded and cached, Warning 110 — instead of 429.
func TestMetricStaleWhenSaturated(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.CacheTTL = 10 * time.Second
	s := newTestServer(t, cfg)
	s.cache.now = clk.now
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	s.probe = gatedProbe(started, gate)
	h := s.Handler()

	req := MetricRequest{Snapshot: highMetricSnapshot()}
	if w := postJSON(t, h, "/v1/metric", req); w.Code != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", w.Code, w.Body.String())
	}
	clk.advance(11 * time.Second) // the cached entry is now stale

	// One gated probe holds the worker, one queued request fills the queue.
	ts := httptest.NewServer(h)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer ts.Close()
	defer close(gate)
	wg.Add(1)
	go func() {
		defer wg.Done()
		httpPost(t, ts.URL+"/v1/analyze", analyzeBody(60))
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		httpPost(t, ts.URL+"/v1/analyze", analyzeBody(61))
	}()
	waitForQueued(t, ts.URL, 1)

	w := postJSON(t, h, "/v1/metric", req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	rec := decodeRec(t, w)
	if !rec.Degraded || !rec.Cached {
		t.Fatalf("saturated answer %+v, want degraded and cached", rec)
	}
	const reason = "server saturated: serving last known recommendation"
	if rec.Warning != reason {
		t.Fatalf("warning %q, want exactly %q", rec.Warning, reason)
	}
	if warn, want := w.Header().Get("Warning"), `110 smtservd "`+reason+`"`; warn != want {
		t.Fatalf("Warning header %q, want exactly %q", warn, want)
	}
	if s.met.shed.Load() != 1 || s.met.staleServed.Load() != 1 {
		t.Fatalf("shed %d staleServed %d, want 1 and 1", s.met.shed.Load(), s.met.staleServed.Load())
	}
}
