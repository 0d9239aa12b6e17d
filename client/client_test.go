package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/api"
)

// scriptRT is a RoundTripper that hands each attempt (0-based) to fn.
type scriptRT struct {
	mu sync.Mutex
	n  int
	fn func(n int, r *http.Request) (*http.Response, error)
}

func (s *scriptRT) RoundTrip(r *http.Request) (*http.Response, error) {
	s.mu.Lock()
	n := s.n
	s.n++
	s.mu.Unlock()
	return s.fn(n, r)
}

func (s *scriptRT) attempts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func jsonResp(status int, body string, hdr map[string]string) *http.Response {
	h := http.Header{"Content-Type": []string{"application/json"}}
	for k, v := range hdr {
		h.Set(k, v)
	}
	return &http.Response{
		StatusCode: status,
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

const okBody = `{"arch":"power7","measuredLevel":4,"recommendedLevel":4,"lowerSMT":false,` +
	`"threshold":1,"metric":0.5,"mixDeviation":0.1,"dispHeld":0.2,"scalability":0.3,` +
	`"terms":null,"fingerprint":"00000000000000aa","cached":false}`

const busyBody = `{"error":"worker queue full, retry later","code":"rate_limited"}`

// testClient builds a client around rt with fast deterministic settings
// and a recording sleep hook. Returns the client and the delay log.
func testClient(t *testing.T, rt http.RoundTripper, mut func(*Config)) (*Client, *[]time.Duration) {
	t.Helper()
	cfg := Config{
		BaseURL:    "http://advisor.test",
		HTTPClient: &http.Client{Transport: rt},
		Seed:       42,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	delays := &[]time.Duration{}
	var mu sync.Mutex
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*delays = append(*delays, d)
		mu.Unlock()
		return ctx.Err()
	}
	return c, delays
}

func TestRetriesThenSucceeds(t *testing.T) {
	rt := &scriptRT{fn: func(n int, _ *http.Request) (*http.Response, error) {
		if n < 2 {
			return jsonResp(429, busyBody, map[string]string{"Retry-After": "0"}), nil
		}
		return jsonResp(200, okBody, nil), nil
	}}
	c, delays := testClient(t, rt, nil)
	rec, err := c.Analyze(context.Background(), api.AnalyzeRequest{Bench: "x"})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rec.Arch != "power7" || rec.Fingerprint != "00000000000000aa" {
		t.Fatalf("bad decode: %+v", rec)
	}
	if rt.attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", rt.attempts())
	}
	if len(*delays) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(*delays))
	}
}

func TestNonRetryableStopsImmediately(t *testing.T) {
	rt := &scriptRT{fn: func(int, *http.Request) (*http.Response, error) {
		return jsonResp(400, `{"error":"chips -1: need >= 1","code":"bad_request"}`, nil), nil
	}}
	c, delays := testClient(t, rt, nil)
	_, err := c.Analyze(context.Background(), api.AnalyzeRequest{Chips: -1})
	var e *api.Error
	if !errors.As(err, &e) {
		t.Fatalf("err %T %v, want *api.Error", err, err)
	}
	if e.Code != api.CodeBadRequest || e.Status != 400 {
		t.Fatalf("envelope %+v", e)
	}
	if rt.attempts() != 1 || len(*delays) != 0 {
		t.Fatalf("attempts %d sleeps %d, want 1 and 0", rt.attempts(), len(*delays))
	}
}

// TestRetryable pins the one classifier the client's retry loop and the
// router's replica fallback share.
func TestRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"rate limited", &api.Error{Code: api.CodeRateLimited, Status: 429}, true},
		{"queue timeout", &api.Error{Code: api.CodeQueueTimeout, Status: 503}, true},
		{"probe timeout", &api.Error{Code: api.CodeProbeTimeout, Status: 504}, true},
		{"breaker open", &api.Error{Code: api.CodeBreakerOpen, Status: 503}, true},
		{"no shards", &api.Error{Code: api.CodeNoShards, Status: 503}, true},
		{"bad request", &api.Error{Code: api.CodeBadRequest, Status: 400}, false},
		{"unknown code 429", &api.Error{Code: "future_code", Status: 429}, true},
		{"unknown code 500", &api.Error{Code: "future_code", Status: 500}, false},
		{"unknown code 503", &api.Error{Code: "future_code", Status: 503}, true},
		{"transport", &url.Error{Op: "Post", URL: "http://127.0.0.1:1/v1/analyze", Err: errors.New("connection refused")}, true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"wrapped api error", fmt.Errorf("forward: %w", &api.Error{Code: api.CodeBadRequest, Status: 400}), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("%s: Retryable(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

func TestExhaustsAttempts(t *testing.T) {
	rt := &scriptRT{fn: func(int, *http.Request) (*http.Response, error) {
		return jsonResp(503, `{"error":"probe circuit breaker open, retry later","code":"breaker_open"}`, nil), nil
	}}
	c, _ := testClient(t, rt, func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err := c.Metric(context.Background(), api.MetricRequest{})
	var e *api.Error
	if !errors.As(err, &e) || e.Code != api.CodeBreakerOpen {
		t.Fatalf("err %v, want breaker_open envelope", err)
	}
	if rt.attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", rt.attempts())
	}
}

// TestBackoffDeterministic pins the determinism contract: the same seed
// yields the same retry schedule, a different seed a different one.
func TestBackoffDeterministic(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		rt := &scriptRT{fn: func(int, *http.Request) (*http.Response, error) {
			return jsonResp(503, busyBody, nil), nil
		}}
		c, delays := testClient(t, rt, func(cfg *Config) {
			cfg.Seed = seed
			cfg.MaxAttempts = 6
			cfg.RetryBudget = -1
		})
		if _, err := c.Metric(context.Background(), api.MetricRequest{}); err == nil {
			t.Fatal("expected failure")
		}
		return *delays
	}
	a, b := run(7), run(7)
	if len(a) != 5 {
		t.Fatalf("sleeps = %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	diff := run(8)
	same := true
	for i := range a {
		if a[i] != diff[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	// Jitter stays within [50%, 100%] of the exponential envelope.
	base := DefaultBaseDelay
	for i, d := range a {
		env := base << i
		if env > DefaultMaxDelay {
			env = DefaultMaxDelay
		}
		if d < env/2 || d > env {
			t.Fatalf("retry %d delay %v outside [%v, %v]", i, d, env/2, env)
		}
	}
}

func TestRetryAfterOverridesBackoff(t *testing.T) {
	rt := &scriptRT{fn: func(n int, _ *http.Request) (*http.Response, error) {
		if n == 0 {
			return jsonResp(429, busyBody, map[string]string{"Retry-After": "2"}), nil
		}
		return jsonResp(200, okBody, nil), nil
	}}
	c, delays := testClient(t, rt, func(cfg *Config) { cfg.RetryBudget = -1 })
	if _, err := c.Metric(context.Background(), api.MetricRequest{}); err != nil {
		t.Fatalf("Metric: %v", err)
	}
	if len(*delays) != 1 || (*delays)[0] < 2*time.Second {
		t.Fatalf("delays %v, want one sleep >= 2s honouring Retry-After", *delays)
	}
}

func TestRetryBudgetBoundsTotalDelay(t *testing.T) {
	rt := &scriptRT{fn: func(int, *http.Request) (*http.Response, error) {
		return jsonResp(429, busyBody, map[string]string{"Retry-After": "10"}), nil
	}}
	c, delays := testClient(t, rt, func(cfg *Config) { cfg.RetryBudget = 1 * time.Second })
	_, err := c.Metric(context.Background(), api.MetricRequest{})
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err %v, want retry-budget error", err)
	}
	if rt.attempts() != 1 || len(*delays) != 0 {
		t.Fatalf("attempts %d sleeps %d: the 10s hint should not fit a 1s budget", rt.attempts(), len(*delays))
	}
	// The original failure stays inspectable through the wrap.
	var e *api.Error
	if !errors.As(err, &e) || e.Code != api.CodeRateLimited {
		t.Fatalf("budget error should wrap the last attempt's envelope: %v", err)
	}
}

func TestParentCancellationStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rt := &scriptRT{fn: func(int, *http.Request) (*http.Response, error) {
		cancel() // fail the first attempt, then the loop must notice ctx
		return jsonResp(503, busyBody, nil), nil
	}}
	c, _ := testClient(t, rt, nil)
	_, err := c.Metric(ctx, api.MetricRequest{})
	if err == nil {
		t.Fatal("expected error")
	}
	if rt.attempts() != 1 {
		t.Fatalf("attempts = %d, want 1 after parent cancellation", rt.attempts())
	}
}

// TestPerAttemptTimeout exercises a real hung server: each attempt dies
// at AttemptTimeout, is retried, and the final error is retryable-class,
// not a caller cancellation.
func TestPerAttemptTimeout(t *testing.T) {
	gate := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate
	}))
	defer ts.Close()  // runs second: waits for handlers, which gate released
	defer close(gate) // runs first: unblocks the hung handlers
	c, err := New(Config{
		BaseURL:        ts.URL,
		MaxAttempts:    2,
		AttemptTimeout: 30 * time.Millisecond,
		BaseDelay:      time.Millisecond,
		MaxDelay:       2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = c.Metric(context.Background(), api.MetricRequest{})
	if err == nil || !strings.Contains(err.Error(), "attempt timed out") {
		t.Fatalf("err %v, want attempt-timeout error", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("per-attempt timeout must not masquerade as caller deadline")
	}
}

func TestHealth(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.PathHealthz {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	c, err := New(Config{BaseURL: ts.URL + "/"}) // trailing slash tolerated
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}
	bad, err := New(Config{BaseURL: ts.URL + "/nope"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	herr := bad.Health(context.Background())
	var e *api.Error
	if !errors.As(herr, &e) || e.Status != 404 {
		t.Fatalf("Health err %v, want api.Error with status 404", herr)
	}
}

func TestDegradedAnswerDecodes(t *testing.T) {
	body := strings.Replace(okBody, `"cached":false`, `"cached":true,"degraded":true`, 1)
	rt := &scriptRT{fn: func(int, *http.Request) (*http.Response, error) {
		resp := jsonResp(200, body, nil)
		resp.Header.Set("Warning", `110 smtservd "probe circuit breaker open"`)
		return resp, nil
	}}
	c, _ := testClient(t, rt, nil)
	rec, err := c.Analyze(context.Background(), api.AnalyzeRequest{Bench: "x"})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !rec.Degraded || !rec.Cached {
		t.Fatalf("degraded answer lost markers: %+v", rec)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
	if _, err := New(Config{BaseURL: "http://x", MaxAttempts: -1}); err == nil {
		t.Fatal("negative MaxAttempts accepted")
	}
}

func TestRequestBodyIsJSON(t *testing.T) {
	var got []byte
	rt := &scriptRT{fn: func(_ int, r *http.Request) (*http.Response, error) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		got = b
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
		return jsonResp(200, okBody, nil), nil
	}}
	c, _ := testClient(t, rt, nil)
	if _, err := c.Analyze(context.Background(), api.AnalyzeRequest{Bench: "ebizzy-like", Seed: 9}); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !bytes.Contains(got, []byte(`"bench":"ebizzy-like"`)) || !bytes.Contains(got, []byte(`"seed":9`)) {
		t.Fatalf("request body %s", got)
	}
}
