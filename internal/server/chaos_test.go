package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/workload"
)

// chaosSchedule is the seeded fault plan for the chaos suite. The After
// windows leave the deterministic prewarm phase (8 distinct analyze keys:
// 8 probes, 8 cache adds, 16 cache lookups) untouched, then inject
// delays, errors and hangs into everything that follows.
func chaosSchedule() *fault.Schedule {
	return &fault.Schedule{
		Seed: 20120521,
		Rules: []fault.Rule{
			{Op: fault.OpProbe, Mode: fault.ModeDelay, Prob: 0.30, DelayMS: 1, JitterMS: 5, After: 8},
			{Op: fault.OpProbe, Mode: fault.ModeError, Prob: 0.20, After: 8},
			{Op: fault.OpProbe, Mode: fault.ModeHang, Prob: 0.05, After: 8},
			{Op: fault.OpCacheGet, Mode: fault.ModeDelay, Prob: 0.20, DelayMS: 1, After: 16},
			{Op: fault.OpCacheAdd, Mode: fault.ModeError, Prob: 0.10, After: 8},
		},
	}
}

// chaosSpec returns the i-th distinct tiny analyze request of the golden
// set. All are cheap enough that the real simulator answers in well under
// the request budget.
func chaosReq(i int) AnalyzeRequest {
	return AnalyzeRequest{
		Spec: &workload.Spec{
			Name: fmt.Sprintf("chaos-%d", i), Mix: workload.Mix{Int: 1},
			Chains: 1, WorkingSetKB: 1, TotalWork: 50_000, IterLen: 100,
		},
		Seed: uint64(100 + i),
	}
}

// TestChaosSuite is the fault-injection integration test: 64 concurrent
// retrying clients drive a live server whose probe and cache paths are
// being injected with scheduled delays, errors and hangs. Required
// outcomes: ≥ 99% of requests answered (fresh or degraded), every
// degraded answer marked, bounded tail latency, zero dropped in-flight
// requests across a drain, and no leaked goroutines.
func TestChaosSuite(t *testing.T) {
	baseline := runtime.NumGoroutine()

	cfg := testConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 128
	cfg.RequestTimeout = 250 * time.Millisecond
	cfg.CacheSize = 64
	cfg.CacheTTL = 25 * time.Millisecond
	cfg.BreakerThreshold = 4
	cfg.BreakerCooldown = 40 * time.Millisecond
	cfg.Faults = fault.NewInjector(chaosSchedule())
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Prewarm: the fault windows keep these 8 requests clean, so every
	// golden key holds a (soon stale) recommendation before chaos begins.
	const keys = 8
	for i := 0; i < keys; i++ {
		if w := postJSON(t, s.Handler(), "/v1/analyze", chaosReq(i)); w.Code != http.StatusOK {
			t.Fatalf("prewarm %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	// Shared transport so idle connections can be torn down for the leak
	// check.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	const clients = 64
	const perClient = 4
	type result struct {
		err      error
		degraded bool
		warning  string
	}
	results := make(chan result, clients*perClient)
	hist := report.NewLatencyHistogram()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.New(client.Config{
				BaseURL:        ts.URL,
				HTTPClient:     hc,
				MaxAttempts:    3,
				AttemptTimeout: time.Second,
				BaseDelay:      2 * time.Millisecond,
				MaxDelay:       20 * time.Millisecond,
				Seed:           uint64(i),
			})
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < perClient; j++ {
				start := time.Now()
				rec, err := c.Analyze(context.Background(), chaosReq((i*perClient+j)%keys))
				hist.Observe(time.Since(start))
				results <- result{err: err, degraded: rec.Degraded, warning: rec.Warning}
			}
		}(i)
	}
	wg.Wait()
	close(results)

	answered, degraded := 0, 0
	total := 0
	for r := range results {
		total++
		if r.err != nil {
			t.Logf("unanswered request: %v", r.err)
			continue
		}
		answered++
		if r.degraded {
			degraded++
			if r.warning == "" {
				t.Error("degraded answer without a warning")
			}
		}
	}
	if total != clients*perClient {
		t.Fatalf("results %d, want %d", total, clients*perClient)
	}
	if ratio := float64(answered) / float64(total); ratio < 0.99 {
		t.Errorf("answered %d/%d (%.1f%%), want >= 99%%", answered, total, 100*ratio)
	}
	// The fault schedule guarantees injected probe failures, and the TTL
	// guarantees revalidations meet them: some answers must have degraded.
	if p99 := hist.Quantile(0.99); p99 > 3*time.Second {
		t.Errorf("p99 latency %v, want <= 3s under faults", p99)
	}

	vars := fetchVars(t, ts.URL)
	if got := int(vars["degraded_total"].(float64)); got < degraded {
		t.Errorf("degraded_total %d < client-observed %d", got, degraded)
	}
	// DESIGN.md's counter identities, on the live document.
	if sum, n := varInt(t, vars, "responses_2xx")+varInt(t, vars, "responses_4xx")+varInt(t, vars, "responses_5xx"),
		varInt(t, vars, "requests_total"); sum != n {
		t.Errorf("responses_2xx + responses_4xx + responses_5xx = %d, requests_total %d", sum, n)
	}
	if sum, n := varInt(t, vars, "stale_served_total")+varInt(t, vars, "partial_served_total"),
		varInt(t, vars, "degraded_total"); sum != n {
		t.Errorf("stale_served_total + partial_served_total = %d, degraded_total %d", sum, n)
	}
	fi, ok := vars["fault_injection"].(map[string]any)
	if !ok || len(fi) == 0 {
		t.Fatalf("fault_injection missing from vars: %v", vars["fault_injection"])
	}
	if calls := fi["probe/calls"].(float64); calls < keys {
		t.Errorf("probe/calls %v, want >= %d", calls, keys)
	}
	t.Logf("chaos: answered %d/%d, degraded %d, p99 %v, faults %v",
		answered, total, degraded, hist.Quantile(0.99), fi)

	// Drain under fault injection: requests in flight when drain begins
	// must still be answered, not dropped.
	const inFlight = 8
	statuses := make(chan int, inFlight)
	var dwg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			status, _ := httpPost(t, ts.URL+"/v1/analyze", chaosReq(i%keys))
			statuses <- status
		}(i)
	}
	s.BeginDrain()
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining healthz %d, want 503", resp.StatusCode)
		}
	}
	dwg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Errorf("in-flight request dropped with status %d during drain", status)
		}
	}

	// Goroutine-leak check: close the server and transport, then let the
	// runtime settle back to (near) the baseline.
	ts.Close()
	tr.CloseIdleConnections()
	deadline := time.After(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("goroutines %d, baseline %d: leak", runtime.NumGoroutine(), baseline)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestFaultsDisabledBitIdentical pins the compatibility acceptance: with
// fault injection disabled, a server carrying the new degradation knobs
// answers the golden request set with byte-identical bodies to a plain
// pre-degradation configuration.
func TestFaultsDisabledBitIdentical(t *testing.T) {
	plain := newTestServer(t, testConfig())

	knobs := testConfig()
	knobs.CacheTTL = time.Hour // long TTL: nothing goes stale in this test
	knobs.BreakerThreshold = 3
	knobs.BreakerCooldown = time.Second
	knobs.Faults = nil
	hardened := newTestServer(t, knobs)

	golden := []struct {
		name string
		path string
		body any
	}{
		{"metric-high", "/v1/metric", MetricRequest{Snapshot: highMetricSnapshot()}},
		{"metric-low", "/v1/metric", MetricRequest{Snapshot: lowMetricSnapshot()}},
		{"metric-high-repeat", "/v1/metric", MetricRequest{Snapshot: highMetricSnapshot()}},
		{"analyze", "/v1/analyze", chaosReq(0)},
		{"analyze-repeat", "/v1/analyze", chaosReq(0)},
		{"analyze-other-arch", "/v1/analyze", func() AnalyzeRequest {
			r := chaosReq(1)
			r.Arch = "nehalem"
			return r
		}()},
		{"place", "/v1/place", json.RawMessage(placeBodyA)},
		{"place-repeat", "/v1/place", json.RawMessage(placeBodyB)},
	}
	for _, g := range golden {
		a := postJSON(t, plain.Handler(), g.path, g.body)
		b := postJSON(t, hardened.Handler(), g.path, g.body)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s: statuses %d / %d", g.name, a.Code, b.Code)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("%s: responses diverge with faults disabled:\nplain:    %s\nhardened: %s",
				g.name, a.Body.Bytes(), b.Body.Bytes())
		}
		for _, hdr := range []string{"Warning"} {
			if got := b.Header().Get(hdr); got != "" {
				t.Errorf("%s: unexpected %s header %q with faults disabled", g.name, hdr, got)
			}
		}
	}
}
