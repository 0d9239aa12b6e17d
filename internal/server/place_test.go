package server

import (
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
	"repro/internal/placement"
)

// Small inline specs the co-simulator finishes fast; the mix skew
// differentiates the pair scores.
const (
	placeSpecCPU = `{"name":"cpu","mix":{"int":1},"chains":1,"workingSetKB":4,"totalWork":40000,"iterLen":100}`
	placeSpecMem = `{"name":"mem","mix":{"int":1,"load":2},"chains":1,"workingSetKB":4,"totalWork":40000,"iterLen":100}`
)

// placeBodyA and placeBodyB are the same placement request spelled with
// different JSON field order, workload order and spec field order — the
// satellite regression pair for canonical-hash keying.
var placeBodyA = `{"seed":7,"workloads":[` +
	`{"name":"cpu","threads":2,"spec":` + placeSpecCPU + `},` +
	`{"name":"mem","spec":` + placeSpecMem + `}]}`

var placeBodyB = `{"workloads":[` +
	`{"spec":{"iterLen":100,"totalWork":40000,"workingSetKB":4,"chains":1,"mix":{"load":2,"int":1},"name":"mem"},"name":"mem"},` +
	`{"threads":2,"spec":{"mix":{"int":1},"name":"cpu","chains":1,"iterLen":100,"totalWork":40000,"workingSetKB":4},"name":"cpu"}` +
	`],"seed":7}`

func decodePlace(t *testing.T, body []byte) api.PlaceResponse {
	t.Helper()
	var resp api.PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return resp
}

// TestPlaceEndpoint drives the fresh and cached paths of POST /v1/place
// end to end through the real co-simulation engine.
func TestPlaceEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()

	w := postRaw(t, h, "/v1/place", placeBodyA)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodePlace(t, w.Body.Bytes())
	if resp.Cached || resp.Degraded {
		t.Fatalf("fresh placement marked cached/degraded: %+v", resp)
	}
	if resp.Arch != "POWER7" && resp.Arch != "power7" {
		t.Fatalf("arch %q", resp.Arch)
	}
	if len(resp.Assignments) == 0 || len(resp.PairScores) == 0 || resp.Fingerprint == "" {
		t.Fatalf("placement incomplete: %+v", resp)
	}
	placed := 0
	for _, a := range resp.Assignments {
		placed += len(a.Threads)
	}
	if placed != 3 {
		t.Fatalf("placed %d threads, want 3", placed)
	}
	if got := s.met.placements.Load(); got != 1 {
		t.Fatalf("placements_total %d, want 1", got)
	}
	if got := s.met.placePairs.Load(); got != uint64(len(resp.PairScores)) {
		t.Fatalf("place_pairs_total %d, want %d", got, len(resp.PairScores))
	}

	// A repeat answers from the cache with the same placement.
	w2 := postRaw(t, h, "/v1/place", placeBodyA)
	if w2.Code != http.StatusOK {
		t.Fatalf("cached status %d: %s", w2.Code, w2.Body.String())
	}
	cached := decodePlace(t, w2.Body.Bytes())
	if !cached.Cached {
		t.Fatalf("second answer not cached: %+v", cached)
	}
	cached.Cached = false
	b1, _ := json.Marshal(resp)
	b2, _ := json.Marshal(cached)
	if string(b1) != string(b2) {
		t.Fatalf("cached placement drifted:\n%s\n%s", b1, b2)
	}
	if got := s.met.placements.Load(); got != 1 {
		t.Fatalf("cache hit launched a co-simulation: placements_total %d", got)
	}
}

// TestPlaceFieldOrderCoalesce is the cache/flight keying regression: two
// concurrent requests that are semantically identical but spell their JSON
// in a different field order must coalesce into ONE co-simulation pass and
// receive byte-identical bodies, and a later permuted request must hit the
// same cache entry.
func TestPlaceFieldOrderCoalesce(t *testing.T) {
	s := newTestServer(t, testConfig())
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
		calls.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return api.PlaceResponse{}, ctx.Err()
		}
		fp, err := in.Fingerprint()
		if err != nil {
			return api.PlaceResponse{}, err
		}
		return api.PlaceResponse{Arch: in.Desc.Name, Chips: in.Chips, Fingerprint: fp}, nil
	}
	ts := httptest.NewServer(s.Handler())

	post := func(body string) (int, []byte) {
		resp, err := http.Post(ts.URL+"/v1/place", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		return resp.StatusCode, data
	}

	var wg sync.WaitGroup
	var statusA, statusB int
	var bodyA, bodyB []byte
	defer wg.Wait()
	defer ts.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		statusA, bodyA = post(placeBodyA)
	}()
	<-started // request A's flight holds the engine
	wg.Add(1)
	go func() {
		defer wg.Done()
		statusB, bodyB = post(placeBodyB)
	}()
	// The permuted request must attach to A's flight, not start its own.
	waitFor(t, "permuted request to coalesce", func() bool {
		return s.met.placeCoalesced.Load() >= 1
	})
	close(gate)
	wg.Wait()

	if statusA != 200 || statusB != 200 {
		t.Fatalf("statuses %d/%d: %s / %s", statusA, statusB, bodyA, bodyB)
	}
	if string(bodyA) != string(bodyB) {
		t.Fatalf("coalesced bodies differ:\n%s\n%s", bodyA, bodyB)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d co-simulation passes for one coalesced pair, want 1", got)
	}
	if got := s.met.placements.Load(); got != 1 {
		t.Fatalf("placements_total %d, want 1", got)
	}

	// A third permuted request after the flight lands on the cache entry.
	status, body := post(placeBodyB)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	if resp := decodePlace(t, body); !resp.Cached {
		t.Fatalf("permuted repeat missed the cache: %+v", resp)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cache hit launched pass %d", got)
	}
}

// TestPlaceErrorEnvelopeTable drives every placement error path and pins
// its (status, code) pair plus the bare envelope shape — the placement
// rendering of TestErrorEnvelopeTable.
func TestPlaceErrorEnvelopeTable(t *testing.T) {
	bad := func(body string) func(t *testing.T) (int, http.Header, []byte) {
		return func(t *testing.T) (int, http.Header, []byte) {
			s := newTestServer(t, testConfig())
			w := postRaw(t, s.Handler(), "/v1/place", body)
			return w.Code, w.Header(), w.Body.Bytes()
		}
	}
	failingPlace := func(s *Server) {
		s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
			return api.PlaceResponse{}, errors.New("engine on fire")
		}
	}
	cases := []struct {
		name       string
		status     int
		code       string
		retryAfter bool
		run        func(t *testing.T) (int, http.Header, []byte)
	}{
		{"malformed-json", 400, api.CodeBadRequest, false,
			bad(`{"workloads":`)},
		{"unknown-field", 400, api.CodeBadRequest, false,
			bad(`{"bogus":1,"workloads":[{"name":"a","bench":"EP"}]}`)},
		{"unknown-arch", 400, api.CodeBadRequest, false,
			bad(`{"arch":"vax","workloads":[{"name":"a","bench":"EP"}]}`)},
		{"bad-chips", 400, api.CodeBadRequest, false,
			bad(`{"chips":-1,"workloads":[{"name":"a","bench":"EP"}]}`)},
		{"bad-maxPerCore", 400, api.CodeBadRequest, false,
			bad(`{"maxPerCore":9,"workloads":[{"name":"a","bench":"EP"}]}`)},
		{"no-workloads", 400, api.CodeBadRequest, false,
			bad(`{}`)},
		{"empty-name", 400, api.CodeBadRequest, false,
			bad(`{"workloads":[{"bench":"EP"}]}`)},
		{"duplicate-name", 400, api.CodeBadRequest, false,
			bad(`{"workloads":[{"name":"a","bench":"EP"},{"name":"a","bench":"CG"}]}`)},
		{"bench-and-spec", 400, api.CodeBadRequest, false,
			bad(`{"workloads":[{"name":"a","bench":"EP","spec":` + placeSpecCPU + `}]}`)},
		{"unknown-bench", 400, api.CodeBadRequest, false,
			bad(`{"workloads":[{"name":"a","bench":"no-such-bench"}]}`)},
		{"over-capacity", 400, api.CodeBadRequest, false,
			bad(`{"workloads":[{"name":"a","bench":"EP","threads":1000}]}`)},
		{"too-many-chips", 400, api.CodeBadRequest, false,
			unsimulated("/v1/place", `{"chips":100000000,"workloads":[{"name":"a","bench":"EP"}]}`)},
		{"threads-overflowing-the-total", 400, api.CodeBadRequest, false,
			unsimulated("/v1/place", `{"workloads":[{"name":"a","bench":"EP","threads":4611686018427387904},`+
				`{"name":"b","bench":"EP","threads":4611686018427387904}]}`)},
		{"unknown-anti-workload", 400, api.CodeBadRequest, false,
			bad(`{"workloads":[{"name":"a","bench":"EP"}],"antiAffinity":[{"a":"a","b":"ghost"}]}`)},

		// An anti-affinity system with no feasible assignment is the
		// client's doing: bad_request, and it must not trip the breaker.
		{"infeasible", 400, api.CodeBadRequest, false,
			func(t *testing.T) (int, http.Header, []byte) {
				s := newTestServer(t, testConfig())
				body := `{"workloads":[{"name":"solo","bench":"EP","threads":9}],` +
					`"antiAffinity":[{"a":"solo","b":"solo"}]}`
				w := postRaw(t, s.Handler(), "/v1/place", body)
				if s.brk.opens.Load() != 0 {
					t.Fatalf("infeasible request tripped the breaker")
				}
				return w.Code, w.Header(), w.Body.Bytes()
			}},

		{"engine-failed", 500, api.CodeProbeFailed, false,
			func(t *testing.T) (int, http.Header, []byte) {
				cfg := testConfig()
				cfg.CacheSize = -1
				s := newTestServer(t, cfg)
				failingPlace(s)
				w := postRaw(t, s.Handler(), "/v1/place", placeBodyA)
				return w.Code, w.Header(), w.Body.Bytes()
			}},

		{"engine-timeout", 504, api.CodeProbeTimeout, false,
			func(t *testing.T) (int, http.Header, []byte) {
				cfg := testConfig()
				cfg.CacheSize = -1
				cfg.RequestTimeout = 30 * time.Millisecond
				s := newTestServer(t, cfg)
				s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
					<-ctx.Done()
					return api.PlaceResponse{}, ctx.Err()
				}
				w := postRaw(t, s.Handler(), "/v1/place", placeBodyA)
				return w.Code, w.Header(), w.Body.Bytes()
			}},

		{"breaker-open", 503, api.CodeBreakerOpen, true,
			func(t *testing.T) (int, http.Header, []byte) {
				cfg := testConfig()
				cfg.CacheSize = -1
				cfg.BreakerThreshold = 1
				cfg.BreakerCooldown = time.Hour
				s := newTestServer(t, cfg)
				failingPlace(s)
				if w := postRaw(t, s.Handler(), "/v1/place", placeBodyA); w.Code != 500 {
					t.Fatalf("tripping request status %d, want 500", w.Code)
				}
				w := postRaw(t, s.Handler(), "/v1/place", placeBodyA)
				return w.Code, w.Header(), w.Body.Bytes()
			}},

		{"queue-full", 429, api.CodeRateLimited, true,
			func(t *testing.T) (int, http.Header, []byte) {
				// One gated analyze probe holds the single worker, one queued
				// request fills the queue; the placement request is shed.
				cfg := testConfig()
				cfg.Workers = 1
				cfg.QueueDepth = 1
				cfg.CacheSize = -1
				s := newTestServer(t, cfg)
				started := make(chan struct{}, 1)
				gate := make(chan struct{})
				s.probe = gatedProbe(started, gate)
				ts := httptest.NewServer(s.Handler())

				var wg sync.WaitGroup
				defer wg.Wait()
				defer ts.Close()
				defer close(gate)
				wg.Add(1)
				go func() {
					defer wg.Done()
					httpPost(t, ts.URL+"/v1/analyze", analyzeBody(50))
				}()
				<-started
				wg.Add(1)
				go func() {
					defer wg.Done()
					httpPost(t, ts.URL+"/v1/analyze", analyzeBody(51))
				}()
				waitForQueued(t, ts.URL, 1)

				resp, err := http.Post(ts.URL+"/v1/place", "application/json",
					strings.NewReader(placeBodyA))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				data, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, resp.Header, data
			}},

		{"queue-timeout", 503, api.CodeQueueTimeout, false,
			func(t *testing.T) (int, http.Header, []byte) {
				// The placement request expires while waiting in the queue
				// behind a worker that ignores its context.
				cfg := testConfig()
				cfg.Workers = 1
				cfg.QueueDepth = 4
				cfg.CacheSize = -1
				cfg.RequestTimeout = 50 * time.Millisecond
				s := newTestServer(t, cfg)
				started := make(chan struct{}, 1)
				gate := make(chan struct{})
				s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
					select {
					case started <- struct{}{}:
					default:
					}
					<-gate
					return api.PlaceResponse{}, errors.New("never reached")
				}
				ts := httptest.NewServer(s.Handler())

				var wg sync.WaitGroup
				defer wg.Wait()
				defer ts.Close()
				defer close(gate)
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/place", "application/json",
						strings.NewReader(placeBodyA))
					if err == nil {
						resp.Body.Close()
					}
				}()
				<-started

				// A different seed keys a different flight: this request must
				// queue behind the stuck worker, not coalesce with it.
				other := strings.Replace(placeBodyA, `"seed":7`, `"seed":8`, 1)
				resp, err := http.Post(ts.URL+"/v1/place", "application/json",
					strings.NewReader(other))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				data, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, resp.Header, data
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, header, body := tc.run(t)
			checkEnvelope(t, status, header, body, tc.status, tc.code, tc.retryAfter)
		})
	}
}

// TestPlaceDegradedStale: with a stale cached placement on hand, an engine
// failure serves it (Warning 110) instead of the error envelope.
func TestPlaceDegradedStale(t *testing.T) {
	cfg := testConfig()
	cfg.CacheTTL = 10 * time.Millisecond
	s := newTestServer(t, cfg)
	h := s.Handler()

	if w := postRaw(t, h, "/v1/place", placeBodyA); w.Code != 200 {
		t.Fatalf("seed status %d: %s", w.Code, w.Body.String())
	}
	time.Sleep(20 * time.Millisecond) // let the entry go stale
	s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
		return api.PlaceResponse{}, errors.New("engine on fire")
	}
	w := postRaw(t, h, "/v1/place", placeBodyB)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if hdr := w.Header().Get("Warning"); !strings.Contains(hdr, "110") {
		t.Fatalf("Warning header %q, want code 110", hdr)
	}
	resp := decodePlace(t, w.Body.Bytes())
	if !resp.Degraded || !resp.Cached || resp.Warning == "" {
		t.Fatalf("stale placement not marked degraded: %+v", resp)
	}
	const staleReason = "placement failed (engine on fire): serving last known placement"
	if resp.Warning != staleReason {
		t.Fatalf("warning %q, want exactly %q", resp.Warning, staleReason)
	}
	if hdr, want := w.Header().Get("Warning"), `110 smtservd "`+staleReason+`"`; hdr != want {
		t.Fatalf("Warning header %q, want exactly %q", hdr, want)
	}
	if len(resp.Assignments) == 0 {
		t.Fatalf("stale placement lost its assignments: %+v", resp)
	}
}

// TestPlaceDegradedPartial: a deadline that cuts the scoring pass short
// still answers 200 with the partial placement (Warning 199) when the
// engine solved from the pairs it finished.
func TestPlaceDegradedPartial(t *testing.T) {
	cfg := testConfig()
	cfg.CacheSize = -1
	s := newTestServer(t, cfg)
	s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
		fp, _ := in.Fingerprint()
		return api.PlaceResponse{
			Arch: in.Desc.Name, Chips: in.Chips,
			Assignments: []api.Assignment{{Chip: 0, Core: 0, Threads: []string{"cpu", "mem"}}},
			PairScores:  []api.PairScore{{A: "cpu", B: "mem", Score: 0.5, WallCycles: 10}},
			Fingerprint: fp,
		}, context.DeadlineExceeded
	}
	w := postRaw(t, s.Handler(), "/v1/place", placeBodyA)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if hdr := w.Header().Get("Warning"); !strings.Contains(hdr, "199") {
		t.Fatalf("Warning header %q, want code 199", hdr)
	}
	resp := decodePlace(t, w.Body.Bytes())
	if !resp.Degraded || !strings.Contains(resp.Warning, "partial placement") {
		t.Fatalf("partial placement not marked: %+v", resp)
	}
	const partialReason = "partial placement: deadline expired with 1 pair scores gathered"
	if resp.Warning != partialReason {
		t.Fatalf("warning %q, want exactly %q", resp.Warning, partialReason)
	}
	if hdr, want := w.Header().Get("Warning"), `199 smtservd "`+partialReason+`"`; hdr != want {
		t.Fatalf("Warning header %q, want exactly %q", hdr, want)
	}
}
