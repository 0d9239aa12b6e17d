package router

import (
	"sync/atomic"
	"time"

	"repro/internal/report"
)

// metrics is the router's observability surface, exported expvar-style as
// one JSON document on /debug/vars — the fleet-level twin of the shard
// counters in internal/server.
type metrics struct {
	start time.Time

	requests     atomic.Uint64
	responses2xx atomic.Uint64
	responses4xx atomic.Uint64
	responses5xx atomic.Uint64

	// fallback counts forwards sent to a non-primary replica; rebalances
	// counts up→down shard transitions (each one shifts that shard's keys
	// onto its replicas until recovery); recoveries counts down→up
	// transitions; unroutable counts requests no replica answered.
	fallback   atomic.Uint64
	rebalances atomic.Uint64
	recoveries atomic.Uint64
	unroutable atomic.Uint64

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

// vars assembles the full metrics document.
func (rt *Router) vars() map[string]any {
	now := rt.now()
	var forwarded, failures uint64
	shards := make(map[string]any, len(rt.shards))
	for name, sh := range rt.shards {
		f, e := sh.forwarded.Load(), sh.failures.Load()
		forwarded += f
		failures += e
		shards[name] = map[string]any{
			"up":               !sh.down(now),
			"forwarded_total":  f,
			"failures_total":   e,
			"downs_total":      sh.downs.Load(),
			"recoveries_total": sh.recovered.Load(),
		}
	}
	return map[string]any{
		"uptime_seconds": time.Since(rt.met.start).Seconds(),
		"draining":       rt.draining.Load(),

		"requests_total": rt.met.requests.Load(),
		"responses_2xx":  rt.met.responses2xx.Load(),
		"responses_4xx":  rt.met.responses4xx.Load(),
		"responses_5xx":  rt.met.responses5xx.Load(),

		"forwarded_total":        forwarded,
		"forward_failures_total": failures,
		"fallback_total":         rt.met.fallback.Load(),
		"rebalances_total":       rt.met.rebalances.Load(),
		"recoveries_total":       rt.met.recoveries.Load(),
		"unroutable_total":       rt.met.unroutable.Load(),

		"shards":                 shards,
		"ring_shards":            len(rt.shards),
		"ring_vnodes":            rt.cfg.VNodes,
		"ring_seed":              rt.cfg.Seed,
		"replicas":               rt.cfg.Replicas,
		"shard_cooldown_seconds": rt.cfg.ShardCooldown.Seconds(),

		"fault_injection": rt.cfg.Faults.Counts(),

		"latency_seconds": rt.met.latency.Snapshot(),
		"latency_summary": rt.met.latency.Summary(),
	}
}
