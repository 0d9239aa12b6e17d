package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/counters"
	"repro/internal/isa"
)

// testConfig is a small, fast configuration for handler tests.
func testConfig() Config {
	return Config{
		Arch:           "power7",
		Chips:          1,
		Threshold:      0.21,
		Workers:        2,
		QueueDepth:     2,
		RequestTimeout: 5 * time.Second,
		CacheSize:      16,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// highMetricSnapshot fabricates a snapshot whose SMTsm clearly exceeds the
// 0.21 threshold (skewed mix, saturated dispatch).
func highMetricSnapshot() counters.Snapshot {
	s := counters.Snapshot{
		WallCycles: 10_000, CoreCycles: 80_000, SMTLevel: 4,
		DispHeldCycles: 72_000,
		Retired:        100_000,
		ThreadBusy:     []int64{10_000, 10_000},
	}
	s.RetiredByClass[isa.Branch] = 40_000
	s.RetiredByClass[isa.Load] = 40_000
	s.RetiredByClass[isa.Int] = 20_000
	return s
}

// lowMetricSnapshot fabricates a near-ideal-mix snapshot under the
// threshold.
func lowMetricSnapshot() counters.Snapshot {
	s := counters.Snapshot{
		WallCycles: 10_000, CoreCycles: 80_000, SMTLevel: 4,
		DispHeldCycles: 4_000,
		Retired:        100_000,
		ThreadBusy:     []int64{10_000, 10_000},
	}
	s.RetiredByClass[isa.Load] = 14_286
	s.RetiredByClass[isa.Store] = 14_286
	s.RetiredByClass[isa.Branch] = 14_286
	s.RetiredByClass[isa.Int] = 28_571
	s.RetiredByClass[isa.FPVec] = 28_571
	return s
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeRec(t *testing.T, w *httptest.ResponseRecorder) Recommendation {
	t.Helper()
	var rec Recommendation
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return rec
}

func TestMetricEndpointDecision(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()

	w := postJSON(t, h, "/v1/metric", MetricRequest{Snapshot: highMetricSnapshot()})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	rec := decodeRec(t, w)
	if !rec.LowerSMT || rec.RecommendedLevel != 2 || rec.MeasuredLevel != 4 {
		t.Fatalf("high-metric recommendation %+v, want lowerSMT to SMT2", rec)
	}
	if rec.Metric <= rec.Threshold {
		t.Fatalf("metric %v not above threshold %v", rec.Metric, rec.Threshold)
	}
	if len(rec.Terms) == 0 || rec.Fingerprint == "" {
		t.Fatalf("breakdown incomplete: %+v", rec)
	}

	w = postJSON(t, h, "/v1/metric", MetricRequest{Snapshot: lowMetricSnapshot()})
	rec = decodeRec(t, w)
	if rec.LowerSMT || rec.RecommendedLevel != 4 {
		t.Fatalf("low-metric recommendation %+v, want keep SMT4", rec)
	}
}

func TestMetricEndpointCacheRoundTrip(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	first := decodeRec(t, postJSON(t, h, "/v1/metric", MetricRequest{Snapshot: highMetricSnapshot()}))
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	second := decodeRec(t, postJSON(t, h, "/v1/metric", MetricRequest{Snapshot: highMetricSnapshot()}))
	if !second.Cached {
		t.Fatal("identical request not served from cache")
	}
	if second.Metric != first.Metric || second.Fingerprint != first.Fingerprint {
		t.Fatalf("cached answer differs: %+v vs %+v", second, first)
	}
	// A different threshold is a different cache identity.
	third := decodeRec(t, postJSON(t, h, "/v1/metric",
		MetricRequest{Snapshot: highMetricSnapshot(), Threshold: 0.5}))
	if third.Cached {
		t.Fatal("threshold override wrongly shared a cache entry")
	}
}

func TestMetricEndpointWarnsBelowMaxLevel(t *testing.T) {
	s := newTestServer(t, testConfig())
	snap := highMetricSnapshot()
	snap.SMTLevel = 1
	rec := decodeRec(t, postJSON(t, s.Handler(), "/v1/metric", MetricRequest{Snapshot: snap}))
	if rec.Warning == "" {
		t.Fatal("no warning for a snapshot measured below the maximum SMT level")
	}
	if rec.RecommendedLevel != 1 {
		t.Fatalf("recommended %d below SMT1", rec.RecommendedLevel)
	}
}

func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"bad-arch", "/v1/metric", MetricRequest{Arch: "sparc", Snapshot: highMetricSnapshot()}, 400},
		{"bad-threshold", "/v1/metric", MetricRequest{Threshold: -1, Snapshot: highMetricSnapshot()}, 400},
		{"analyze-no-workload", "/v1/analyze", AnalyzeRequest{}, 400},
		{"analyze-unknown-bench", "/v1/analyze", AnalyzeRequest{Bench: "no-such-bench"}, 400},
		{"analyze-bad-chips", "/v1/analyze", AnalyzeRequest{Bench: "EP", Chips: -2}, 400},
	}
	for _, tc := range cases {
		if w := postJSON(t, h, tc.path, tc.body); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
	// Malformed JSON.
	req := httptest.NewRequest("POST", "/v1/metric", strings.NewReader("{nope"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 400 {
		t.Errorf("malformed JSON: status %d, want 400", w.Code)
	}
	// Both bench and spec.
	var spec struct{}
	_ = spec
	body := map[string]any{"bench": "EP", "spec": map[string]any{
		"name": "x", "mix": map[string]any{"int": 1}, "chains": 1,
		"workingSetKB": 1, "totalWork": 1000, "iterLen": 100,
	}}
	if w := postJSON(t, h, "/v1/analyze", body); w.Code != 400 {
		t.Errorf("bench+spec: status %d, want 400", w.Code)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz %d", w.Code)
	}
	s.BeginDrain()
	if w := get("/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", w.Code)
	}
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
}

func TestVarsDocument(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	postJSON(t, h, "/v1/metric", MetricRequest{Snapshot: highMetricSnapshot()})
	postJSON(t, h, "/v1/metric", MetricRequest{Snapshot: highMetricSnapshot()})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/vars", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("vars status %d", w.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests_total", "shed_total", "cache_hits", "cache_misses",
		"cache_hit_rate", "active_workers", "peak_active_workers",
		"latency_seconds", "workers", "queued", "draining",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("vars missing %q", key)
		}
	}
	if vars["cache_hits"].(float64) < 1 {
		t.Fatalf("cache_hits %v after a repeated request", vars["cache_hits"])
	}
}

func TestAccessLogLines(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.AccessLog = &buf
	s := newTestServer(t, cfg)
	postJSON(t, s.Handler(), "/v1/metric", MetricRequest{Snapshot: lowMetricSnapshot()})
	line := strings.TrimSpace(buf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log %q not JSON: %v", line, err)
	}
	if entry["method"] != "POST" || entry["path"] != "/v1/metric" || entry["status"].(float64) != 200 {
		t.Fatalf("access entry %v", entry)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Arch: "vax", Threshold: 0.2},
		{Threshold: 0},
		{Threshold: -3},
		{Threshold: 0.2, Workers: -1},
		{Threshold: 0.2, QueueDepth: -1},
		{Threshold: 0.2, RequestTimeout: -time.Second},
		{Threshold: 0.2, Chips: -1},
		{Threshold: 0.2, Chips: api.MaxChips + 1},
		{Threshold: 0.2, BreakerThreshold: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Threshold: 0.2}); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
}

func TestLimiterSemantics(t *testing.T) {
	l := newLimiter(1, 1)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One more fits in the queue but blocks; a third is shed immediately.
	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- l.acquire(ctx) }()
	// Wait until the queued request holds its queue token.
	for len(l.queue) != 2 {
		time.Sleep(time.Millisecond)
	}
	if err := l.acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire err = %v, want ErrQueueFull", err)
	}
	// Cancelling the queued request must free its queue token.
	cancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire err = %v, want Canceled", err)
	}
	l.release()
	if err := l.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if l.peakActive() != 1 || l.workers() != 1 {
		t.Fatalf("peak %d workers %d", l.peakActive(), l.workers())
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.add("a", 1)
	c.add("b", 2)
	if _, _, ok := c.get("a", 0); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.add("c", 3)
	if _, _, ok := c.get("b", 0); ok {
		t.Fatal("b not evicted")
	}
	if _, _, ok := c.get("a", 0); !ok {
		t.Fatal("refreshed entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
	hits, misses := c.stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits %d misses %d", hits, misses)
	}
	// Disabled cache.
	d := newLRUCache(0)
	d.add("x", 1)
	if _, _, ok := d.get("x", 0); ok {
		t.Fatal("disabled cache returned a value")
	}
}
