package server

import (
	"sync/atomic"
	"time"

	"repro/internal/report"
)

// metrics is the advisor's observability surface, exported expvar-style as
// one JSON document on /debug/vars. Counters are lock-free atomics; the
// latency histogram is the shared report.LatencyHistogram, so the daemon
// and the experiment tooling summarise latencies identically.
type metrics struct {
	start time.Time

	requests     atomic.Uint64
	responses2xx atomic.Uint64
	responses4xx atomic.Uint64
	responses5xx atomic.Uint64
	shed         atomic.Uint64
	timeouts     atomic.Uint64

	// Degradation-path counters: every degraded answer increments
	// degraded plus exactly one of staleServed (stale cache fallback) or
	// partialServed (partial-probe fallback).
	degraded      atomic.Uint64
	staleServed   atomic.Uint64
	partialServed atomic.Uint64

	// Coalescing counters: flights counts probe-flight leaders, probes the
	// simulations actually launched (a flight that resolves on the cache
	// double-check probes nothing), coalesced the requests that attached to
	// another request's flight instead of probing for themselves.
	flights   atomic.Uint64
	probes    atomic.Uint64
	coalesced atomic.Uint64

	// Placement counters: placements counts co-simulation passes actually
	// launched for /v1/place (flight leaders that reached the engine),
	// placeCoalesced the placement requests that attached to another
	// request's flight, placePairs the pair co-runs scored across all
	// successful passes.
	placements     atomic.Uint64
	placeCoalesced atomic.Uint64
	placePairs     atomic.Uint64

	latency *report.LatencyHistogram
}

func newMetrics() *metrics {
	return &metrics{
		start:   time.Now(),
		latency: report.NewLatencyHistogram(),
	}
}

// observe records one finished request.
func (m *metrics) observe(status int, elapsed time.Duration) {
	m.requests.Add(1)
	m.latency.Observe(elapsed)
	switch {
	case status >= 500:
		m.responses5xx.Add(1)
	case status >= 400:
		m.responses4xx.Add(1)
	default:
		m.responses2xx.Add(1)
	}
}

// vars assembles the full metrics document. Gauges (worker occupancy, queue
// length, cache size) are sampled from the server's live components at call
// time.
func (s *Server) vars() map[string]any {
	// Bound straight off the atomics so the counter registration is
	// direct — the binding varslint checks against the DESIGN.md table.
	hits, misses := s.cache.hits.Load(), s.cache.misses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return map[string]any{
		"uptime_seconds": time.Since(s.met.start).Seconds(),
		"draining":       s.draining.Load(),

		"requests_total": s.met.requests.Load(),
		"responses_2xx":  s.met.responses2xx.Load(),
		"responses_4xx":  s.met.responses4xx.Load(),
		"responses_5xx":  s.met.responses5xx.Load(),
		"shed_total":     s.met.shed.Load(),
		"timeout_total":  s.met.timeouts.Load(),

		"degraded_total":       s.met.degraded.Load(),
		"stale_served_total":   s.met.staleServed.Load(),
		"partial_served_total": s.met.partialServed.Load(),

		"flights_total":     s.met.flights.Load(),
		"probes_total":      s.met.probes.Load(),
		"coalesced_total":   s.met.coalesced.Load(),
		"flights_in_flight": s.flights.inFlight(),

		"placements_total":        s.met.placements.Load(),
		"place_coalesced_total":   s.met.placeCoalesced.Load(),
		"place_pairs_total":       s.met.placePairs.Load(),
		"place_flights_in_flight": s.placeFlights.inFlight(),

		"breaker_state":        s.brk.stateName(),
		"breaker_opens_total":  s.brk.opens.Load(),
		"breaker_denied_total": s.brk.denied.Load(),

		"fault_injection": s.cfg.Faults.Counts(),

		"cache_capacity":    s.cfg.CacheSize,
		"cache_size":        s.cache.len(),
		"cache_ttl_seconds": s.cfg.CacheTTL.Seconds(),
		"cache_hits":        hits,
		"cache_misses":      misses,
		"cache_hit_rate":    hitRate,

		"workers":             s.lim.workers(),
		"active_workers":      s.lim.activeWorkers(),
		"peak_active_workers": s.lim.peakActive(),
		"queue_depth":         s.cfg.QueueDepth,
		"queued":              s.lim.queued(),

		"machine_pool": s.pool.Stats(),

		"latency_seconds": s.met.latency.Snapshot(),
		"latency_summary": s.met.latency.Summary(),
	}
}
