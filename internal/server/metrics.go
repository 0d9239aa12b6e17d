package server

import "sync/atomic"

// metrics holds the advisor's own counters, lock-free atomics exported
// expvar-style on /debug/vars beside the request counters and latency
// histogram of the daemon shell (internal/httpx).
type metrics struct {
	shed     atomic.Uint64
	timeouts atomic.Uint64

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
}

// vars assembles the server's share of the metrics document; the shell
// adds its own keys. Gauges (worker occupancy, queue length, cache size)
// are sampled from the server's live components at call time.
func (s *Server) vars() map[string]any {
	// Bound straight off the atomics so the counter registration is
	// direct — the binding varslint checks against the DESIGN.md table.
	hits, misses := s.cache.hits.Load(), s.cache.misses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return map[string]any{
		"shed_total":    s.met.shed.Load(),
		"timeout_total": s.met.timeouts.Load(),

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
	}
}
