// Package httpx is the HTTP plumbing smtservd (internal/server) and
// smtrouter (internal/router) share: the request middleware — per-request
// timeout, body limit, status capture and the JSON access log — and the
// JSON response, error-envelope, request-decoding and /debug/vars helpers.
//
// The package holds no counter. Each daemon observes its own finished
// requests through Middleware.Observe, so every counter stays in the
// package that increments it and exports it on /debug/vars.
package httpx

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/api"
)

// maxBodyBytes bounds request bodies; counter snapshots, workload specs and
// placement mixes are tiny, so anything near this limit is abuse.
const maxBodyBytes = 1 << 20

// Middleware wraps a daemon's routes with the request pipeline both
// daemons share.
type Middleware struct {
	// Timeout is the per-request budget wired through the request context
	// (0 = no budget).
	Timeout time.Duration
	// Now is the clock behind latencies and access-log timestamps. It is
	// called on every request, so a daemon may swap its clock after the
	// handler is built.
	Now func() time.Time
	// Observe receives every finished request's status and latency.
	Observe func(status int, elapsed time.Duration)
	// Log receives one JSON line per request (nil = no logging).
	Log io.Writer

	logMu sync.Mutex
}

// Wrap returns next behind the middleware.
func (m *Middleware) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := m.Now()
		ctx := r.Context()
		if m.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, m.Timeout)
			defer cancel()
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		next.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := m.Now().Sub(start)
		m.Observe(rec.status, elapsed)
		m.accessLog(r, rec.status, rec.bytes, elapsed)
	})
}

// accessLog emits one structured JSON line per request.
func (m *Middleware) accessLog(r *http.Request, status int, bytes int64, elapsed time.Duration) {
	if m.Log == nil {
		return
	}
	line, err := json.Marshal(map[string]any{
		"time":   m.Now().UTC().Format(time.RFC3339Nano),
		"method": r.Method,
		"path":   r.URL.Path,
		"status": status,
		"bytes":  bytes,
		"dur_ms": float64(elapsed.Microseconds()) / 1000,
		"remote": r.RemoteAddr,
	})
	if err != nil {
		return
	}
	m.logMu.Lock()
	defer m.logMu.Unlock()
	//lint:ignore errlint access logging is best-effort by design: a full log disk must not fail requests
	_, _ = m.Log.Write(append(line, '\n'))
}

// statusRecorder captures the response status and size for logs/metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		// Marshal of the daemons' own response types cannot fail; if it
		// ever does, a 500 with no body beats a silently truncated 200.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	//lint:ignore errlint the response write is best-effort: the client may have hung up, and the status is already committed
	_, _ = w.Write(append(body, '\n'))
}

// WriteError answers status with the api.Error envelope every non-2xx
// response carries: a human-readable message under "error" and the
// machine-readable code clients branch on.
func WriteError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	WriteJSON(w, status, api.Error{Message: fmt.Sprintf(format, args...), Code: code})
}

// DecodeJSON parses a request body, rejecting unknown fields so misspelled
// options fail loudly at the edge.
func DecodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Vars serves the expvar-style metrics document vars assembles, sampled
// afresh on every request.
func Vars(vars func() map[string]any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		body, err := json.MarshalIndent(vars(), "", "  ")
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		//lint:ignore errlint the response write is best-effort: the client may have hung up
		_, _ = w.Write(append(body, '\n'))
	}
}
