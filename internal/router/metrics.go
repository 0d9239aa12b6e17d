package router

import "sync/atomic"

// metrics holds the router's own counters, exported expvar-style on
// /debug/vars beside the request counters and latency histogram of the
// daemon shell (internal/httpx).
type metrics struct {
	// fallback counts forwards sent to a non-primary replica; rebalances
	// counts up→down shard transitions (each one shifts that shard's keys
	// onto its replicas until recovery); recoveries counts down→up
	// transitions; unroutable counts requests no replica answered.
	fallback   atomic.Uint64
	rebalances atomic.Uint64
	recoveries atomic.Uint64
	unroutable atomic.Uint64
}

// vars assembles the router's share of the metrics document; the shell
// adds its own keys.
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
	}
}
