package server

import (
	"errors"
	"sync"
)

// Probe coalescing: the experiments Runner's singleflight idiom lifted into
// the serving path. Every /v1/analyze or /v1/place request that misses the
// cache joins a "flight" keyed by its canonical request fingerprint — the
// same key the LRU uses. The first goroutine to create the flight is the
// leader: it alone takes a worker slot, passes the breaker gate and runs
// the probe (or placement co-simulation).
// Everyone else is a waiter: it parks on the flight (holding no worker
// slot) and is fanned the leader's outcome when the flight closes. A burst
// of K identical analyze calls therefore costs exactly one simulation and
// one worker, which is what lets a shard absorb same-workload stampedes.
//
// Determinism contract: coalescing only changes who computes, never what.
// The fanned-out Recommendation is the leader's, byte for byte, and the
// probe itself is the same seeded simulation a solo request would have
// run — so responses are bit-identical whether a burst was coalesced or
// served one by one (and whether it hit 1 shard or N; see internal/router).

// Leader-outcome sentinels: the leader could not probe at all, so each
// waiter re-runs its own degradation choice (stale fallback or the mapped
// error) instead of inheriting a probe failure that never happened.
var (
	// errFlightShed: the leader found every worker and queue slot occupied.
	errFlightShed = errors.New("server: coalesced leader shed")
	// errFlightExpired: the leader's deadline expired while it queued.
	errFlightExpired = errors.New("server: coalesced leader expired in queue")
	// errFlightBreaker: the probe circuit breaker was open.
	errFlightBreaker = errors.New("server: probe circuit breaker open")
)

// flight is one in-flight computation. The leader fills val/err and then
// closes done; waiters read the fields only after done is closed. The
// payload is the endpoint's answer type, so analyze flights
// (api.Recommendation) and placement flights (api.PlaceResponse) share one
// coalescing mechanism — and one determinism contract.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// flightGroup tracks the in-flight computation per fingerprint key.
type flightGroup[T any] struct {
	mu      sync.Mutex
	flights map[string]*flight[T]
}

func newFlightGroup[T any]() *flightGroup[T] {
	return &flightGroup[T]{flights: make(map[string]*flight[T])}
}

// join returns the flight for key, creating it when none is in flight.
// The second result reports leadership: the caller that created the flight
// must eventually call finish exactly once.
func (g *flightGroup[T]) join(key string) (*flight[T], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f, false
	}
	f := &flight[T]{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// finish publishes the leader's outcome (already stored in f) to every
// waiter and retires the flight, so the next miss for key starts fresh.
func (g *flightGroup[T]) finish(key string, f *flight[T]) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
}

// inFlight reports the number of open flights, for /debug/vars.
func (g *flightGroup[T]) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}
