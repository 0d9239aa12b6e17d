package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/placement"
	"repro/internal/workload"
)

// decodeStrict unmarshals data into v rejecting unknown fields, pinning
// the exact shape of the error envelope.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// postRaw posts a raw body straight through the handler.
func postRaw(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// checkEnvelope asserts a non-2xx response carries exactly the api.Error
// envelope — {"error": ..., "code": ...} and nothing else — with the
// expected machine-readable code.
func checkEnvelope(t *testing.T, status int, header http.Header, body []byte, wantStatus int, wantCode string, wantRetryAfter bool) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", status, wantStatus, body)
	}
	if ct := header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type %q", ct)
	}
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := decodeStrict(body, &env); err != nil {
		t.Fatalf("body %s is not the bare error envelope: %v", body, err)
	}
	if env.Code != wantCode {
		t.Fatalf("code %q, want %q (message %q)", env.Code, wantCode, env.Error)
	}
	if env.Error == "" {
		t.Fatal("empty error message")
	}
	if wantRetryAfter && header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After header")
	}
	// The wire code must round-trip through the public api package and
	// agree with its retryability classification.
	e := api.Error{Message: env.Error, Code: env.Code, Status: status}
	wantRetryable := map[string]bool{
		api.CodeRateLimited:  true,
		api.CodeQueueTimeout: true,
		api.CodeProbeTimeout: true,
		api.CodeBreakerOpen:  true,
	}[env.Code]
	if e.Retryable() != wantRetryable {
		t.Fatalf("code %q retryable %v, want %v", env.Code, e.Retryable(), wantRetryable)
	}
}

// unsimulated posts body to path on a test server whose probe and place
// stubs fail the test: for requests that must be rejected before any
// simulation, because the real engine would try to allocate for them or
// would read them as some other request.
func unsimulated(path, body string) func(t *testing.T) (int, http.Header, []byte) {
	return func(t *testing.T) (int, http.Header, []byte) {
		s := newTestServer(t, testConfig())
		s.probe = func(context.Context, *arch.Desc, int, *workload.Spec, uint64) (controller.ProbeResult, error) {
			t.Fatal("a request to reject reached the probe")
			return controller.ProbeResult{}, nil
		}
		s.place = func(context.Context, *placement.Input) (api.PlaceResponse, error) {
			t.Fatal("a request to reject reached the placement engine")
			return api.PlaceResponse{}, nil
		}
		w := postRaw(t, s.Handler(), path, body)
		return w.Code, w.Header(), w.Body.Bytes()
	}
}

// TestErrorEnvelopeTable drives every request-level error path and pins
// its (status, code) pair plus the envelope shape.
func TestErrorEnvelopeTable(t *testing.T) {
	bad := func(path, body string) func(t *testing.T) (int, http.Header, []byte) {
		return func(t *testing.T) (int, http.Header, []byte) {
			s := newTestServer(t, testConfig())
			w := postRaw(t, s.Handler(), path, body)
			return w.Code, w.Header(), w.Body.Bytes()
		}
	}
	cases := []struct {
		name       string
		status     int
		code       string
		retryAfter bool
		run        func(t *testing.T) (int, http.Header, []byte)
	}{
		{"metric/malformed-json", 400, api.CodeBadRequest, false,
			bad("/v1/metric", `{"arch":`)},
		{"metric/unknown-field", 400, api.CodeBadRequest, false,
			bad("/v1/metric", `{"bogus":1}`)},
		{"metric/unknown-arch", 400, api.CodeBadRequest, false,
			bad("/v1/metric", `{"arch":"vax"}`)},
		{"metric/bad-threshold", 400, api.CodeBadRequest, false,
			bad("/v1/metric", `{"threshold":-1}`)},
		{"analyze/malformed-json", 400, api.CodeBadRequest, false,
			bad("/v1/analyze", `{`)},
		{"analyze/unknown-arch", 400, api.CodeBadRequest, false,
			bad("/v1/analyze", `{"arch":"vax","bench":"EP"}`)},
		{"analyze/bad-threshold", 400, api.CodeBadRequest, false,
			bad("/v1/analyze", `{"bench":"EP","threshold":-2}`)},
		{"analyze/bad-chips", 400, api.CodeBadRequest, false,
			bad("/v1/analyze", `{"bench":"EP","chips":-1}`)},
		{"analyze/too-many-chips", 400, api.CodeBadRequest, false,
			unsimulated("/v1/analyze", `{"bench":"EP","chips":100000000}`)},
		{"analyze/unknown-bench", 400, api.CodeBadRequest, false,
			bad("/v1/analyze", `{"bench":"no-such-bench"}`)},
		{"analyze/no-workload", 400, api.CodeBadRequest, false,
			bad("/v1/analyze", `{}`)},
		{"analyze/bench-and-spec", 400, api.CodeBadRequest, false,
			bad("/v1/analyze", `{"bench":"EP","spec":{"name":"x","mix":{"int":1},"chains":1,"workingSetKB":1,"totalWork":1000,"iterLen":100}}`)},
		{"analyze/unknown-spec-field", 400, api.CodeBadRequest, false,
			unsimulated("/v1/analyze", `{"spec":{"name":"x","mix":{"int":1},"chains":1,"workingSetKB":1,"totalWork":1000,"iterLen":100,"lockEvry":2}}`)},
		{"analyze/negative-stride", 400, api.CodeBadRequest, false,
			unsimulated("/v1/analyze", `{"spec":{"name":"x","mix":{"load":1},"chains":1,"workingSetKB":1,"totalWork":1000,"iterLen":100,"strideBytes":-64}}`)},

		{"analyze/probe-failed", 500, api.CodeProbeFailed, false,
			func(t *testing.T) (int, http.Header, []byte) {
				cfg := testConfig()
				cfg.CacheSize = -1
				s := newTestServer(t, cfg)
				s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
					return controller.ProbeResult{}, errors.New("simulator on fire")
				}
				w := postJSON(t, s.Handler(), "/v1/analyze", analyzeBody(1))
				return w.Code, w.Header(), w.Body.Bytes()
			}},

		{"analyze/probe-timeout", 504, api.CodeProbeTimeout, false,
			func(t *testing.T) (int, http.Header, []byte) {
				cfg := testConfig()
				cfg.CacheSize = -1
				cfg.RequestTimeout = 30 * time.Millisecond
				s := newTestServer(t, cfg)
				gate := make(chan struct{})
				defer close(gate)
				s.probe = gatedProbe(make(chan struct{}, 1), gate)
				w := postJSON(t, s.Handler(), "/v1/analyze", analyzeBody(2))
				return w.Code, w.Header(), w.Body.Bytes()
			}},

		{"analyze/breaker-open", 503, api.CodeBreakerOpen, true,
			func(t *testing.T) (int, http.Header, []byte) {
				cfg := testConfig()
				cfg.CacheSize = -1
				cfg.BreakerThreshold = 1
				cfg.BreakerCooldown = time.Hour
				s := newTestServer(t, cfg)
				s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
					return controller.ProbeResult{}, errors.New("simulator on fire")
				}
				if w := postJSON(t, s.Handler(), "/v1/analyze", analyzeBody(3)); w.Code != 500 {
					t.Fatalf("tripping request status %d, want 500", w.Code)
				}
				w := postJSON(t, s.Handler(), "/v1/analyze", analyzeBody(4))
				return w.Code, w.Header(), w.Body.Bytes()
			}},

		{"metric/queue-full", 429, api.CodeRateLimited, true,
			func(t *testing.T) (int, http.Header, []byte) {
				// One gated probe holds the worker, one queued request fills
				// the queue; the next request is shed.
				cfg := testConfig()
				cfg.Workers = 1
				cfg.QueueDepth = 1
				cfg.CacheSize = -1
				s := newTestServer(t, cfg)
				started := make(chan struct{}, 1)
				gate := make(chan struct{})
				s.probe = gatedProbe(started, gate)
				ts := httptest.NewServer(s.Handler())

				// Defers run LIFO: open the gate first so the teardown waits
				// finish promptly.
				var wg sync.WaitGroup
				defer wg.Wait()
				defer ts.Close()
				defer close(gate)
				wg.Add(1)
				go func() {
					defer wg.Done()
					httpPost(t, ts.URL+"/v1/analyze", analyzeBody(5))
				}()
				<-started
				wg.Add(1)
				go func() {
					defer wg.Done()
					httpPost(t, ts.URL+"/v1/analyze", analyzeBody(6))
				}()
				waitForQueued(t, ts.URL, 1)

				resp, err := http.Post(ts.URL+"/v1/metric", "application/json",
					strings.NewReader(`{}`))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				if _, err := buf.ReadFrom(resp.Body); err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, resp.Header, buf.Bytes()
			}},

		{"metric/queue-timeout", 503, api.CodeQueueTimeout, false,
			func(t *testing.T) (int, http.Header, []byte) {
				// The metric request expires while waiting in the queue
				// behind a probe that ignores its context.
				cfg := testConfig()
				cfg.Workers = 1
				cfg.QueueDepth = 4
				cfg.CacheSize = -1
				cfg.RequestTimeout = 50 * time.Millisecond
				s := newTestServer(t, cfg)
				started := make(chan struct{}, 1)
				gate := make(chan struct{})
				s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
					select {
					case started <- struct{}{}:
					default:
					}
					<-gate
					return controller.ProbeResult{WallCycles: 1, Snapshot: highMetricSnapshot()}, nil
				}
				ts := httptest.NewServer(s.Handler())

				var wg sync.WaitGroup
				defer wg.Wait()
				defer ts.Close()
				defer close(gate)
				wg.Add(1)
				go func() {
					defer wg.Done()
					httpPost(t, ts.URL+"/v1/analyze", analyzeBody(9))
				}()
				<-started

				resp, err := http.Post(ts.URL+"/v1/metric", "application/json",
					strings.NewReader(`{}`))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				if _, err := buf.ReadFrom(resp.Body); err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, resp.Header, buf.Bytes()
			}},

		{"analyze/queue-timeout", 503, api.CodeQueueTimeout, false,
			func(t *testing.T) (int, http.Header, []byte) {
				// The request expires while waiting in the queue.
				cfg := testConfig()
				cfg.Workers = 1
				cfg.QueueDepth = 4
				cfg.CacheSize = -1
				cfg.RequestTimeout = 50 * time.Millisecond
				s := newTestServer(t, cfg)
				started := make(chan struct{}, 1)
				gate := make(chan struct{})
				// Block on the gate alone (ignoring ctx) so the single worker
				// stays occupied past the queued request's deadline — the
				// queued request must expire in the queue, not at the probe.
				s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
					select {
					case started <- struct{}{}:
					default:
					}
					<-gate
					return controller.ProbeResult{WallCycles: 1, Snapshot: highMetricSnapshot()}, nil
				}
				ts := httptest.NewServer(s.Handler())

				var wg sync.WaitGroup
				defer wg.Wait()
				defer ts.Close()
				defer close(gate)
				wg.Add(1)
				go func() {
					defer wg.Done()
					httpPost(t, ts.URL+"/v1/analyze", analyzeBody(7))
				}()
				<-started

				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
					strings.NewReader(`{"bench":"EP","seed":8}`))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				if _, err := buf.ReadFrom(resp.Body); err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, resp.Header, buf.Bytes()
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, header, body := tc.run(t)
			checkEnvelope(t, status, header, body, tc.status, tc.code, tc.retryAfter)
		})
	}
}

// waitForQueued polls /debug/vars until the queue gauge reaches n.
func waitForQueued(t *testing.T, baseURL string, n float64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if fetchVars(t, baseURL)["queued"].(float64) >= n {
			return
		}
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		case <-time.After(2 * time.Millisecond):
		}
	}
}
