// Fixture for varslint: a daemon shell that counts every request and
// exports the count into each daemon's /debug/vars document.
package httpx

import "sync/atomic"

type Shell struct {
	requests atomic.Uint64
}

func (s *Shell) observe() { s.requests.Add(1) }

func (s *Shell) fragment() map[string]any {
	return map[string]any{"requests_total": s.requests.Load()}
}
