package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/api"
	"repro/internal/counters"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/server"
	"repro/internal/workload"
)

// newShard starts one real advisor shard (internal/server) and returns its
// test server. Every shard gets the same configuration, which is what the
// 1-shard ≡ N-shard determinism contract requires of a production fleet.
func newShard(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Threshold:      0.21,
		Workers:        2,
		QueueDepth:     8,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newFleet starts n shards and a router over them, returning the router's
// test server plus the shard test servers.
func newFleet(t *testing.T, n int, tweak func(*Config)) (*httptest.Server, []*httptest.Server) {
	t.Helper()
	shards := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = newShard(t)
		urls[i] = shards[i].URL
	}
	cfg := Config{Shards: urls, Replicas: 2, Seed: 1}
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts, shards
}

// post sends one JSON request and returns (status, body).
func post(t *testing.T, baseURL, path string, payload any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// routerVars fetches and decodes the router's /debug/vars.
func routerVars(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	return vars
}

func rvarInt(t *testing.T, vars map[string]any, key string) int64 {
	t.Helper()
	v, ok := vars[key].(float64)
	if !ok {
		t.Fatalf("/debug/vars %q = %v (%T), want a number", key, vars[key], vars[key])
	}
	return int64(v)
}

// analyzeReq builds the i-th distinct analyze request; distinct specs and
// seeds spread the keys over the ring.
func analyzeReq(i int) api.AnalyzeRequest {
	return api.AnalyzeRequest{
		Spec: &workload.Spec{
			Name: fmt.Sprintf("fleet-%d", i), Mix: workload.Mix{Int: 1},
			Chains: 1, WorkingSetKB: 1, TotalWork: 50_000, IterLen: 100,
		},
		Seed: uint64(100 + i),
	}
}

// placeReq builds the i-th distinct placement request: a two-workload mix
// with an anti-affinity rule, keyed apart by spec names and seed.
func placeReq(i int) api.PlaceRequest {
	spec := func(kind string, load float64) *workload.Spec {
		return &workload.Spec{
			Name: fmt.Sprintf("fleet-place-%s-%d", kind, i), Mix: workload.Mix{Int: 1, Load: load},
			Chains: 1, WorkingSetKB: 4, TotalWork: 40_000, IterLen: 100,
		}
	}
	return api.PlaceRequest{
		Seed: uint64(300 + i),
		Workloads: []api.PlaceWorkload{
			{Name: "cpu", Spec: spec("cpu", 0), Threads: 2},
			{Name: "mem", Spec: spec("mem", 2), Threads: 2},
			{Name: "mix", Spec: spec("mix", 1)},
		},
		AntiAffinity: []api.AffinityRule{{A: "cpu", B: "mem"}},
	}
}

// metricReq builds a /v1/metric request with a recognisable snapshot.
func metricReq() api.MetricRequest {
	s := counters.Snapshot{
		WallCycles: 10_000, CoreCycles: 80_000, SMTLevel: 4,
		DispHeldCycles: 72_000,
		Retired:        100_000,
		ThreadBusy:     []int64{10_000, 10_000},
	}
	s.RetiredByClass[isa.Branch] = 40_000
	s.RetiredByClass[isa.Load] = 40_000
	s.RetiredByClass[isa.Int] = 20_000
	return api.MetricRequest{Snapshot: s}
}

// TestGoldenOneShardEqualsFleet is the determinism pin from the issue:
// the same request must yield a byte-identical Recommendation through a
// single shard and through a 3-shard router — fresh and cached alike.
func TestGoldenOneShardEqualsFleet(t *testing.T) {
	solo := newShard(t)
	fleet, _ := newFleet(t, 3, nil)

	check := func(name, path string, payload any) {
		t.Helper()
		// Twice per side: the first answer is fresh, the second served from
		// the shard cache; both must match byte for byte.
		for pass := 0; pass < 2; pass++ {
			soloStatus, soloBody := post(t, solo.URL, path, payload)
			fleetStatus, fleetBody := post(t, fleet.URL, path, payload)
			if soloStatus != http.StatusOK || fleetStatus != http.StatusOK {
				t.Fatalf("%s pass %d: solo %d fleet %d: %s / %s", name, pass, soloStatus, fleetStatus, soloBody, fleetBody)
			}
			if !bytes.Equal(soloBody, fleetBody) {
				t.Fatalf("%s pass %d: 1-shard and 3-shard responses differ:\nsolo:  %s\nfleet: %s",
					name, pass, soloBody, fleetBody)
			}
		}
	}
	for i := 0; i < 4; i++ {
		check(fmt.Sprintf("analyze-%d", i), api.PathAnalyze, analyzeReq(i))
	}
	check("metric", api.PathMetric, metricReq())
	for i := 0; i < 3; i++ {
		check(fmt.Sprintf("place-%d", i), api.PathPlace, placeReq(i))
	}
}

// TestRouterKeyAffinity pins cache affinity: identical requests land on
// the same shard, so the second answer comes from that shard's LRU. For
// /v1/place the repeat is reordered — workloads reversed, the anti rule
// flipped and repeated — which the shard's canonical key ignores, so the
// router's key must ignore it too. Three placements keep an
// order-sensitive key from passing by luck (it would reach the caching
// shard of three only about once in 27 tries).
func TestRouterKeyAffinity(t *testing.T) {
	fleet, _ := newFleet(t, 3, nil)
	req := analyzeReq(0)
	if status, body := post(t, fleet.URL, api.PathAnalyze, req); status != http.StatusOK {
		t.Fatalf("first: %d %s", status, body)
	}
	_, body := post(t, fleet.URL, api.PathAnalyze, req)
	var rec api.Recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Cached {
		t.Fatalf("second identical request missed the shard cache: %+v — keys are not routing stably", rec)
	}

	for i := 0; i < 3; i++ {
		req := placeReq(i)
		if status, body := post(t, fleet.URL, api.PathPlace, req); status != http.StatusOK {
			t.Fatalf("place %d first: %d %s", i, status, body)
		}
		repeat := req
		repeat.Workloads = slices.Clone(req.Workloads)
		slices.Reverse(repeat.Workloads)
		flipped := api.AffinityRule{A: req.AntiAffinity[0].B, B: req.AntiAffinity[0].A}
		repeat.AntiAffinity = []api.AffinityRule{flipped, req.AntiAffinity[0]}
		status, body := post(t, fleet.URL, api.PathPlace, repeat)
		if status != http.StatusOK {
			t.Fatalf("place %d repeat: %d %s", i, status, body)
		}
		var resp api.PlaceResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatalf("place %d: reordered repeat missed the shard cache — the route key depends on workload or rule order", i)
		}
	}
}

// TestRouterShardLossFallback kills one of two shards and verifies every
// request is still answered via replica fallback, with the loss visible in
// the rebalance counters.
func TestRouterShardLossFallback(t *testing.T) {
	fleet, shards := newFleet(t, 2, func(c *Config) {
		c.HopTimeout = 2 * time.Second
		c.ShardCooldown = 30 * time.Second // dead shard stays skipped for the whole test
	})
	shards[0].Close() // hard loss: connection refused, like a SIGKILLed shard

	const n = 12
	for i := 0; i < n; i++ {
		status, body := post(t, fleet.URL, api.PathAnalyze, analyzeReq(i))
		if status != http.StatusOK {
			t.Fatalf("request %d after shard loss: %d %s", i, status, body)
		}
	}
	vars := routerVars(t, fleet.URL)
	if got := rvarInt(t, vars, "responses_2xx"); got < n {
		t.Fatalf("responses_2xx = %d, want >= %d", got, n)
	}
	if rvarInt(t, vars, "rebalances_total") < 1 {
		t.Fatal("shard loss produced no rebalance event")
	}
	if rvarInt(t, vars, "fallback_total") < 1 {
		t.Fatal("no request was served by replica fallback — did every key land on the survivor?")
	}
}

// TestRouterPropagatesNonRetryable sends bodies every shard rejects through
// the fleet: an unknown bench, and the oversized bodies the request limits
// exist for. Each must come back 400 without burning a replica fallback,
// and no shard may simulate anything for it or be marked down. The router
// answers the rows marked atRouter itself, with the shard's message, so no
// shard receives them at all. A chips body that also names an unknown
// architecture or a negative threshold goes on to a shard, which answers
// for that first.
func TestRouterPropagatesNonRetryable(t *testing.T) {
	huge := 1 << 62
	tooMany := "chips 100000000: exceeds the limit of 2"
	unknownArch := `server: unknown architecture "z80" (want power7, nehalem or smt8)`
	cases := []struct {
		name, path string
		payload    any
		atRouter   bool   // the router answers without a hop
		message    string // the wanted message, "" to leave it unchecked
	}{
		{"unknown bench", api.PathAnalyze, api.AnalyzeRequest{Bench: "no-such-bench"}, false, ""},
		{"analyze chips", api.PathAnalyze, api.AnalyzeRequest{Bench: "EP", Chips: 100_000_000}, true, tooMany},
		{"place chips", api.PathPlace, api.PlaceRequest{Chips: 100_000_000,
			Workloads: []api.PlaceWorkload{{Name: "ep", Bench: "EP", Threads: 2}}}, true, tooMany},
		// A shard checks the architecture (and an analyze call's threshold)
		// before the chips, so these get the shard's message, as they would
		// from one shard without the router.
		{"analyze chips unknown arch", api.PathAnalyze,
			api.AnalyzeRequest{Bench: "EP", Arch: "z80", Chips: 100_000_000}, false, unknownArch},
		{"analyze chips negative threshold", api.PathAnalyze,
			api.AnalyzeRequest{Bench: "EP", Threshold: -1, Chips: 100_000_000}, false,
			"threshold -1: need a positive finite value"},
		{"place chips unknown arch", api.PathPlace, api.PlaceRequest{Arch: "z80", Chips: 100_000_000,
			Workloads: []api.PlaceWorkload{{Name: "ep", Bench: "EP", Threads: 2}}}, false, unknownArch},
		{"place threads", api.PathPlace, api.PlaceRequest{
			Workloads: []api.PlaceWorkload{{Name: "a", Bench: "EP", Threads: huge}, {Name: "b", Bench: "CG", Threads: huge}}}, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fleet, shards := newFleet(t, 3, nil)
			status, body := post(t, fleet.URL, tc.path, tc.payload)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, body)
			}
			var e api.Error
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != api.CodeBadRequest {
				t.Fatalf("code %q, want %q", e.Code, api.CodeBadRequest)
			}
			if tc.message != "" && e.Message != tc.message {
				t.Fatalf("message %q, want %q", e.Message, tc.message)
			}
			if got := rvarInt(t, routerVars(t, fleet.URL), "fallback_total"); got != 0 {
				t.Fatalf("a non-retryable shard error burned %d replica fallbacks, want 0", got)
			}
			for i, sh := range shards {
				vars := routerVars(t, sh.URL)
				keys := []string{"probes_total", "placements_total"}
				if tc.atRouter {
					// This read is the shard's first request.
					keys = append(keys, "requests_total")
				}
				for _, key := range keys {
					if got := rvarInt(t, vars, key); got != 0 {
						t.Errorf("shard %d %s = %d, want 0", i, key, got)
					}
				}
			}
			resp, err := http.Get(fleet.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var health struct {
				Shards map[string]string `json:"shards"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
				t.Fatal(err)
			}
			if len(health.Shards) != len(shards) {
				t.Fatalf("healthz lists %d shards, want %d", len(health.Shards), len(shards))
			}
			for name, state := range health.Shards {
				if state != "up" {
					t.Errorf("shard %s is %q after a rejected body, want up", name, state)
				}
			}
		})
	}
}

// TestRouterFaultOps covers the new chaos operations: an injected route
// fault fails the request before any shard is contacted, and an injected
// forward fault drives the same no-healthy-shard path as a dead replica.
func TestRouterFaultOps(t *testing.T) {
	t.Run("route", func(t *testing.T) {
		fleet, _ := newFleet(t, 1, func(c *Config) {
			c.Faults = fault.NewInjector(&fault.Schedule{Seed: 1, Rules: []fault.Rule{
				{Op: fault.OpRoute, Mode: fault.ModeError, Prob: 1},
			}})
		})
		status, body := post(t, fleet.URL, api.PathAnalyze, analyzeReq(0))
		if status != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", status, body)
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != api.CodeNoShards {
			t.Fatalf("code %q, want %q", e.Code, api.CodeNoShards)
		}
	})
	t.Run("forward", func(t *testing.T) {
		fleet, _ := newFleet(t, 1, func(c *Config) {
			c.Replicas = 1
			c.Faults = fault.NewInjector(&fault.Schedule{Seed: 1, Rules: []fault.Rule{
				{Op: fault.OpForward, Mode: fault.ModeError, Prob: 1},
			}})
		})
		status, body := post(t, fleet.URL, api.PathAnalyze, analyzeReq(0))
		if status != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", status, body)
		}
		// A 2xx and a 4xx beside the 5xx, for the shell's identity below.
		resp, err := http.Get(fleet.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz %d, want 200", resp.StatusCode)
		}
		if status, body := post(t, fleet.URL, api.PathAnalyze, api.AnalyzeRequest{Bench: "EP", Chips: 100_000_000}); status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, body)
		}
		vars := routerVars(t, fleet.URL)
		if got := rvarInt(t, vars, "forwarded_total"); got != 0 {
			t.Fatalf("forwarded_total = %d with every forward faulted, want 0", got)
		}
		if got := rvarInt(t, vars, "unroutable_total"); got < 1 {
			t.Fatalf("unroutable_total = %d, want >= 1", got)
		}
		// DESIGN.md's identity: responses_2xx + responses_4xx +
		// responses_5xx == requests_total.
		for key, want := range map[string]int64{"responses_2xx": 1, "responses_4xx": 1, "responses_5xx": 1, "requests_total": 3} {
			if got := rvarInt(t, vars, key); got != want {
				t.Errorf("%s = %d, want %d", key, got, want)
			}
		}
	})
}

// TestRouterHealthz covers the health document and drain flip.
func TestRouterHealthz(t *testing.T) {
	urls := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	rt, err := New(Config{Shards: urls, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Status string            `json:"status"`
		Shards map[string]string `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || doc.Status != "ok" || len(doc.Shards) != 2 {
		t.Fatalf("healthz %d %+v", resp.StatusCode, doc)
	}

	rt.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
}

// TestAccessLogUsesInjectedClock pins the access-log timestamp to the
// router's rt.now seam: a frozen clock must stamp every line with the frozen
// instant (and a zero duration), not the wall clock.
func TestAccessLogUsesInjectedClock(t *testing.T) {
	shard := newShard(t)
	var buf bytes.Buffer
	rt, err := New(Config{Shards: []string{shard.URL}, Seed: 1, AccessLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	frozen := time.Date(2026, time.April, 1, 12, 0, 0, 0, time.UTC)
	rt.now = func() time.Time { return frozen }
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var line struct {
		Time  string  `json:"time"`
		Path  string  `json:"path"`
		DurMS float64 `json:"dur_ms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("unmarshal access log %q: %v", buf.String(), err)
	}
	if want := frozen.Format(time.RFC3339Nano); line.Time != want {
		t.Errorf("log time = %q, want %q (injected clock ignored)", line.Time, want)
	}
	if line.Path != "/healthz" {
		t.Errorf("log path = %q", line.Path)
	}
	if line.DurMS != 0 {
		t.Errorf("dur_ms = %v, want 0 under a frozen clock", line.DurMS)
	}
}
