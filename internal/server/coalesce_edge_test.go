package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
	"repro/internal/xrand"
)

// waitFor polls cond (1ms cadence) until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// analyzeKey computes the fingerprint key handleAnalyze derives for req with
// the server's defaults filled in. Kept in lockstep with api.go: if the key
// format drifts, the sentinel tests below stop coalescing and fail loudly.
func analyzeKey(t *testing.T, s *Server, req AnalyzeRequest) string {
	t.Helper()
	specJSON, err := json.Marshal(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("analyze|%s|%d|%d|%016x|%016x",
		s.defaultArch.Name, s.cfg.Chips, req.Seed,
		math.Float64bits(s.cfg.Threshold), xrand.HashBytes(specJSON))
}

// gatedProbeFunc blocks the named spec's probe until release is closed
// (reporting entry on started); any other spec probes instantly. Both
// produce the same deterministic snapshot.
func gatedProbeFunc(calls *atomic.Int64, blockName string, started chan<- struct{}, release <-chan struct{}) probeFunc {
	return func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		calls.Add(1)
		if spec.Name == blockName {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
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

// TestCoalesceWaiterDeadlineDuringProbe: a waiter whose request dies while
// the leader is still probing must unpark on its own context — counted as a
// timeout — while the leader's probe runs to completion and answers 200.
func TestCoalesceWaiterDeadlineDuringProbe(t *testing.T) {
	cfg := testConfig()
	s := newTestServer(t, cfg)
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.probe = gatedProbeFunc(&calls, "coalesce", started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(coalesceReq())
	if err != nil {
		t.Fatal(err)
	}
	leaderStatus := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			leaderStatus <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		leaderStatus <- resp.StatusCode
	}()
	<-started // leader is inside the probe, flight open

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	waiterErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(wctx, "POST", ts.URL+"/v1/analyze", bytes.NewReader(body))
		if err != nil {
			waiterErr <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("waiter unexpectedly got status %d", resp.StatusCode)
		}
		waiterErr <- err
	}()
	waitFor(t, "waiter to park on the flight", func() bool { return s.met.coalesced.Load() == 1 })

	wcancel() // the waiter's deadline fires mid-probe
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter error = %v, want context.Canceled", err)
	}
	waitFor(t, "server to count the waiter timeout", func() bool { return s.met.timeouts.Load() == 1 })

	close(release) // leader finishes normally, unaffected
	if got := <-leaderStatus; got != http.StatusOK {
		t.Errorf("leader status = %d, want 200", got)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("probe ran %d times, want 1", got)
	}

	// The same contract on /v1/place: the waiter is answered 504
	// probe_timeout on its own deadline while the leader's placement runs
	// on to a 200.
	t.Run("place", func(t *testing.T) {
		s := newTestServer(t, cfg)
		var calls atomic.Int64
		started := make(chan struct{}, 1)
		release := make(chan struct{})
		s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
			calls.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-ctx.Done():
				return api.PlaceResponse{}, ctx.Err()
			}
			return api.PlaceResponse{Arch: in.Desc.Name, Chips: in.Chips}, nil
		}
		h := s.Handler()
		leaderStatus := make(chan int, 1)
		go func() { leaderStatus <- postRaw(t, h, "/v1/place", placeBodyA).Code }()
		<-started // leader is inside the placement, flight open

		wctx, wcancel := context.WithCancel(context.Background())
		defer wcancel()
		waiter := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			req := httptest.NewRequest("POST", "/v1/place", strings.NewReader(placeBodyA)).WithContext(wctx)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			waiter <- w
		}()
		waitFor(t, "waiter to park on the flight", func() bool { return s.met.placeCoalesced.Load() == 1 })

		wcancel() // the waiter's deadline fires mid-placement
		w := <-waiter
		checkEnvelope(t, w.Code, w.Header(), w.Body.Bytes(), http.StatusGatewayTimeout, api.CodeProbeTimeout, false)
		if got := s.met.timeouts.Load(); got != 1 {
			t.Errorf("timeout_total = %d, want 1", got)
		}

		close(release) // leader finishes normally, unaffected
		if got := <-leaderStatus; got != http.StatusOK {
			t.Errorf("leader status = %d, want 200", got)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("placement ran %d times, want 1", got)
		}
	})
}

// sentinelFlight is a flight the test leads on one endpoint: waiters that
// post body to path park on it until finish publishes the leader outcome.
type sentinelFlight struct {
	path   string
	body   []byte
	finish func(err error)
	parked func() uint64 // the endpoint's coalesced-waiter counter
	open   func() int    // the endpoint's open-flight gauge
}

// leadSentinelFlight wins leadership of the flight that the endpoint's
// fixed test request ("analyze" or "place") keys to on s.
func leadSentinelFlight(t *testing.T, s *Server, endpoint string) sentinelFlight {
	t.Helper()
	if endpoint == "place" {
		key := placeKeyOf(t, s, placeBodyA)
		f, leader := s.placeFlights.join(key)
		if !leader {
			t.Fatal("test did not win flight leadership")
		}
		return sentinelFlight{
			path: "/v1/place",
			body: []byte(placeBodyA),
			finish: func(err error) {
				f.err = err
				s.placeFlights.finish(key, f)
			},
			parked: s.met.placeCoalesced.Load,
			open:   s.placeFlights.inFlight,
		}
	}
	req := coalesceReq()
	key := analyzeKey(t, s, req)
	f, leader := s.flights.join(key)
	if !leader {
		t.Fatal("test did not win flight leadership")
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return sentinelFlight{
		path: "/v1/analyze",
		body: body,
		finish: func(err error) {
			f.err = err
			s.flights.finish(key, f)
		},
		parked: s.met.coalesced.Load,
		open:   s.flights.inFlight,
	}
}

// placeKeyOf computes the flight key handlePlace derives for body with the
// server's defaults filled in.
func placeKeyOf(t *testing.T, s *Server, body string) string {
	t.Helper()
	var req api.PlaceRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	in, err := placement.Resolve(s.defaultArch, s.cfg.Chips, req)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := in.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return placeKey(canonical)
}

// TestWaitersSeeLeaderSentinels parks real waiters on a flight the test
// leads, then finishes it with each leader-outcome sentinel in turn: every
// waiter must map the sentinel through its own degradation path onto the
// documented status, error code and Retry-After header — with no probe run.
// The analyze cases run under the bare sentinel name, the /v1/place cases
// under "place/".
func TestWaitersSeeLeaderSentinels(t *testing.T) {
	cases := []struct {
		name           string
		sentinel       error
		wantStatus     int
		wantCode       string
		wantRetryAfter bool
	}{
		{"shed", errFlightShed, http.StatusTooManyRequests, api.CodeRateLimited, true},
		{"expired", errFlightExpired, http.StatusServiceUnavailable, api.CodeQueueTimeout, false},
		{"breaker", errFlightBreaker, http.StatusServiceUnavailable, api.CodeBreakerOpen, true},
	}
	for _, endpoint := range []string{"analyze", "place"} {
		for _, tc := range cases {
			name := tc.name
			if endpoint == "place" {
				name = "place/" + tc.name
			}
			t.Run(name, func(t *testing.T) {
				cfg := testConfig()
				s := newTestServer(t, cfg)
				var calls atomic.Int64
				s.probe = countingProbe(&calls)
				s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
					calls.Add(1)
					return api.PlaceResponse{}, nil
				}
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()

				fl := leadSentinelFlight(t, s, endpoint)

				const waiters = 3
				type reply struct {
					status int
					header http.Header
					body   []byte
				}
				replies := make(chan reply, waiters)
				for i := 0; i < waiters; i++ {
					go func() {
						resp, err := http.Post(ts.URL+fl.path, "application/json", bytes.NewReader(fl.body))
						if err != nil {
							replies <- reply{status: -1}
							return
						}
						defer resp.Body.Close()
						raw, _ := io.ReadAll(resp.Body)
						replies <- reply{resp.StatusCode, resp.Header, raw}
					}()
				}
				waitFor(t, "waiters to park on the flight", func() bool {
					return fl.parked() == waiters
				})

				fl.finish(tc.sentinel)

				for i := 0; i < waiters; i++ {
					r := <-replies
					if r.status == -1 {
						t.Fatal("waiter transport error")
					}
					checkEnvelope(t, r.status, r.header, r.body, tc.wantStatus, tc.wantCode, tc.wantRetryAfter)
				}
				if got := calls.Load(); got != 0 {
					t.Errorf("probe ran %d times under sentinel %v, want 0", got, tc.sentinel)
				}
				if got := fl.open(); got != 0 {
					t.Errorf("flights in flight after finish = %d, want 0", got)
				}
			})
		}
	}
}

// TestCoalesceLeaderExpiredInQueueFansOut drives the errFlightExpired
// sentinel through the genuine path: the leader's context dies while it is
// queued for a worker, and every parked waiter must be answered with the
// queue-timeout envelope, no probe having run for their key.
func TestCoalesceLeaderExpiredInQueueFansOut(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 4
	s := newTestServer(t, cfg)
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.probe = gatedProbeFunc(&calls, "blocker", started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blockReq := coalesceReq()
	blockReq.Spec.Name = "blocker"
	blockBody, err := json.Marshal(blockReq)
	if err != nil {
		t.Fatal(err)
	}
	blockerStatus := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(blockBody))
		if err != nil {
			blockerStatus <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		blockerStatus <- resp.StatusCode
	}()
	<-started // blocker owns the only worker slot

	body, err := json.Marshal(coalesceReq())
	if err != nil {
		t.Fatal(err)
	}
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, err := http.NewRequestWithContext(lctx, "POST", ts.URL+"/v1/analyze", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "leader to queue for a worker", func() bool { return s.lim.queued() == 1 })

	const waiters = 3
	var wg sync.WaitGroup
	statuses := make([]int, waiters)
	codes := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses[i] = -1
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			statuses[i] = resp.StatusCode
			var env struct {
				Code string `json:"code"`
			}
			if json.Unmarshal(raw, &env) == nil {
				codes[i] = env.Code
			}
		}(i)
	}
	waitFor(t, "waiters to park on the flight", func() bool {
		return s.met.coalesced.Load() == waiters
	})

	lcancel() // the queued leader's deadline fires
	wg.Wait()
	<-leaderDone
	for i := range statuses {
		if statuses[i] != http.StatusServiceUnavailable || codes[i] != api.CodeQueueTimeout {
			t.Errorf("waiter %d: status %d code %q, want 503 %q",
				i, statuses[i], codes[i], api.CodeQueueTimeout)
		}
	}

	close(release) // let the blocker finish before the server shuts down
	if got := <-blockerStatus; got != http.StatusOK {
		t.Errorf("blocker status = %d, want 200", got)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("probe calls = %d, want 1 (the blocker only)", got)
	}
}
