// Fixture for varslint: a daemon whose identity names requests_total,
// which only the daemon shell exports.
package server

import "sync/atomic"

type metrics struct {
	probes atomic.Uint64
}

func (m *metrics) probe() { m.probes.Add(1) }

func (m *metrics) vars() map[string]any {
	return map[string]any{"probes_total": m.probes.Load()}
}
