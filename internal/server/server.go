// Package server implements smtservd's serving path: a long-running HTTP
// advisor that turns counter observations and workload descriptions into
// SMT-level recommendations with the full SMT-selection-metric breakdown.
//
// It is the paper's Section V use-case lifted into a production shape:
//
//   - POST /v1/metric   — score a counter snapshot the client measured
//     itself (the PMU-sampling path of an online optimizer);
//   - POST /v1/analyze  — probe a described workload on the simulated
//     machine at the maximum SMT level and recommend a level for it;
//   - POST /v1/place    — co-simulate a workload mix pairwise and assign
//     every thread to a core (internal/placement);
//   - GET  /healthz     — liveness/readiness (503 while draining);
//   - GET  /debug/vars  — expvar-style metrics document.
//
// The serving path is hardened the way a heavy-traffic deployment needs:
// bounded worker concurrency with a bounded waiting queue and 429
// load-shedding beyond it, per-request timeouts wired through context, an
// LRU recommendation cache keyed by canonical request fingerprints, JSON
// access logging, and graceful drain (in-flight requests finish; health
// flips to 503 so load balancers stop sending new work).
package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/placement"
	"repro/internal/workload"
)

// Config tunes the advisor service.
type Config struct {
	// Arch is the default architecture for requests that name none:
	// "power7", "nehalem" or "smt8".
	Arch string
	// Chips is the default chip count for analyze probes (>= 1).
	Chips int
	// Threshold is the default decision threshold (> 0); requests may
	// override it per call.
	Threshold float64
	// Workers bounds concurrently served requests (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker before the server
	// sheds load with 429 (0 = 2×Workers).
	QueueDepth int
	// RequestTimeout is the per-request budget wired through context into
	// the simulator (0 = 30s).
	RequestTimeout time.Duration
	// CacheSize is the LRU recommendation-cache capacity in entries
	// (0 = 1024; negative disables caching).
	CacheSize int
	// CacheTTL is how long a cached recommendation stays fresh. Beyond it
	// the entry is revalidated by a new probe, and only served again —
	// marked degraded — when revalidation is impossible (0 = entries never
	// go stale, the pre-degradation behaviour).
	CacheTTL time.Duration
	// BreakerThreshold is the number of consecutive probe failures that
	// opens the probe circuit breaker (0 = 5; negative disables the
	// breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting a
	// half-open trial probe (0 = 10s).
	BreakerCooldown time.Duration
	// CoalesceWindow is how long the leader of an analyze probe flight holds
	// the simulation back, so a burst of identical requests spread over the
	// window still coalesces onto one probe. 0 keeps coalescing for
	// requests that are already in flight without delaying the leader;
	// negative disables coalescing entirely (every request probes for
	// itself).
	CoalesceWindow time.Duration
	// Faults optionally injects scheduled faults into the probe and cache
	// paths for chaos testing (nil = no injection; see internal/fault).
	Faults *fault.Injector
	// AccessLog receives one JSON line per request (nil = no logging).
	AccessLog io.Writer
}

// withDefaults fills zero values with production defaults.
func (c Config) withDefaults() Config {
	if c.Arch == "" {
		c.Arch = "power7"
	}
	if c.Chips == 0 {
		c.Chips = 1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// validate rejects nonsensical configurations.
func (c Config) validate() error {
	if _, err := resolveArch(c.Arch); err != nil {
		return err
	}
	if c.Chips < 1 {
		return fmt.Errorf("server: chips %d, need >= 1", c.Chips)
	}
	if c.Chips > api.MaxChips {
		return fmt.Errorf("server: chips %d exceeds the limit of %d", c.Chips, api.MaxChips)
	}
	if !(c.Threshold > 0) || math.IsInf(c.Threshold, 0) {
		return fmt.Errorf("server: threshold %v, need a positive finite value", c.Threshold)
	}
	if c.Workers < 1 {
		return fmt.Errorf("server: workers %d, need >= 1", c.Workers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("server: negative queue depth %d", c.QueueDepth)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("server: negative request timeout %v", c.RequestTimeout)
	}
	if c.CacheTTL < 0 {
		return fmt.Errorf("server: negative cache TTL %v", c.CacheTTL)
	}
	if c.BreakerCooldown < 0 {
		return fmt.Errorf("server: negative breaker cooldown %v", c.BreakerCooldown)
	}
	return nil
}

// probeFunc runs one analyze probe; swapped by tests to control timing.
type probeFunc func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error)

// placeFunc runs one placement co-simulation; swapped by tests to control
// timing and failure modes.
type placeFunc func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error)

// Server is the advisor service. Build one with New, mount Handler on an
// http.Server, and call BeginDrain before http.Server.Shutdown.
type Server struct {
	cfg          Config
	defaultArch  *arch.Desc
	lim          *limiter
	cache        *lruCache
	brk          *breaker
	met          *metrics
	handler      http.Handler
	flights      *flightGroup[Recommendation]
	placeFlights *flightGroup[api.PlaceResponse]
	probe        probeFunc
	place        placeFunc
	pool         *cpu.Pool
	draining     atomic.Bool

	// The POST endpoints' request pipelines (endpoint.go).
	metricEP, analyzeEP *endpoint[Recommendation]
	placeEP             *endpoint[api.PlaceResponse]
}

// New builds the service from a validated configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d, err := resolveArch(cfg.Arch)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		defaultArch:  d,
		lim:          newLimiter(cfg.Workers, cfg.QueueDepth),
		cache:        newLRUCache(cfg.CacheSize),
		brk:          newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		met:          newMetrics(),
		flights:      newFlightGroup[Recommendation](),
		placeFlights: newFlightGroup[api.PlaceResponse](),
		// At most Workers probes run at once, so Workers machines per
		// (arch, chips) key covers the steady state.
		pool: cpu.NewPool(cfg.Workers),
	}
	prober := &controller.Prober{Pool: s.pool}
	s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		// Scheduled faults fire before the real probe: an injected delay
		// eats into the request budget, an injected error or hang takes
		// the same degradation path a sick simulator would.
		if err := cfg.Faults.Inject(ctx, fault.OpProbe); err != nil {
			return controller.ProbeResult{}, err
		}
		return prober.Probe(ctx, d, chips, spec, seed)
	}
	// The placement engine shares the probe path's pooled machines; faults
	// injected on the probe op hit it too, so the chaos schedule exercises
	// both endpoints.
	engine := &placement.Engine{Pool: s.pool}
	s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
		if err := cfg.Faults.Inject(ctx, fault.OpProbe); err != nil {
			return api.PlaceResponse{}, err
		}
		return engine.Place(ctx, in)
	}
	recMarks := func(r *Recommendation) marks { return marks{&r.Cached, &r.Degraded, &r.Warning} }
	s.metricEP = &endpoint[Recommendation]{s: s, noun: "metric", answer: "recommendation", marks: recMarks}
	s.analyzeEP = &endpoint[Recommendation]{
		s: s, noun: "probe", answer: "recommendation",
		flights:   s.flights,
		coalesced: func() { s.met.coalesced.Add(1) },
		marks:     recMarks,
		// The analyze computation renders a recommendation alongside an
		// error only from a probe that retired instructions, so a
		// fingerprint marks a usable partial answer.
		partial: func(rec Recommendation) (string, bool) {
			return fmt.Sprintf("partial probe: deadline expired after %d simulated cycles", rec.WallCycles), rec.Fingerprint != ""
		},
	}
	s.placeEP = &endpoint[api.PlaceResponse]{
		s: s, noun: "placement", answer: "placement",
		flights:   s.placeFlights,
		coalesced: func() { s.met.placeCoalesced.Add(1) },
		marks:     func(r *api.PlaceResponse) marks { return marks{&r.Cached, &r.Degraded, &r.Warning} },
		// The engine solves from the pairs it scored before the deadline.
		partial: func(resp api.PlaceResponse) (string, bool) {
			return fmt.Sprintf("partial placement: deadline expired with %d pair scores gathered", len(resp.PairScores)), len(resp.PairScores) > 0
		},
		// A constraint system with no solution is the client's doing, not
		// a sick engine.
		clientErr: placement.ErrInfeasible,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /debug/vars", httpx.Vars(s.vars))
	mux.HandleFunc("POST /v1/metric", s.handleMetric)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/place", s.handlePlace)
	mw := &httpx.Middleware{
		Timeout: cfg.RequestTimeout,
		Now:     time.Now,
		Observe: s.met.observe,
		Log:     cfg.AccessLog,
	}
	s.handler = mw.Wrap(mux)
	return s, nil
}

// Handler returns the full request pipeline: routing wrapped with the
// timeout, metrics and access-logging middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// BeginDrain flips the server into draining mode: /healthz answers 503 so
// load balancers stop routing here, while in-flight and queued requests run
// to completion. Call it just before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// resolveArch maps a request/config architecture name to its description.
func resolveArch(name string) (*arch.Desc, error) {
	switch strings.ToLower(name) {
	case "power7", "p7":
		return arch.POWER7(), nil
	case "nehalem", "i7":
		return arch.Nehalem(), nil
	case "smt8", "genericsmt8":
		return arch.GenericSMT8(), nil
	default:
		return nil, fmt.Errorf("server: unknown architecture %q (want power7, nehalem or smt8)", name)
	}
}

// handleHealthz answers liveness probes; a draining server reports 503 so
// balancers stop sending new work while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		httpx.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
