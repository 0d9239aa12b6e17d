// Package httpx is the daemon shell smtservd (internal/server) and
// smtrouter (internal/router) share. A Shell wraps a daemon's routes in the
// request pipeline — per-request timeout, body limit, status capture and
// the JSON access log — and counts every finished request. It answers
// /healthz (503 once draining), serves /debug/vars with its own keys merged
// into the daemon's document, and runs the daemon's lifecycle: listen,
// wait for the signal, drain, shut down. The package also holds the JSON
// response, error-envelope and request-decoding helpers.
//
// The request counters every daemon exports (requests_total and the
// responses_* classes) live in the shell, so each is incremented and
// exported in this one package; each daemon keeps only its own counters.
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/fault"
	"repro/internal/report"
)

// maxBodyBytes bounds request bodies; counter snapshots, workload specs and
// placement mixes are tiny, so anything near this limit is abuse.
const maxBodyBytes = 1 << 20

// Config is what a daemon hands its shell.
type Config struct {
	// Timeout is the per-request budget wired through the request context
	// (0 = no budget).
	Timeout time.Duration
	// Now is the clock behind latencies and access-log timestamps. It is
	// called on every request, so a daemon may swap its clock after New.
	Now func() time.Time
	// Log receives one JSON line per request (nil = no logging).
	Log io.Writer
	// Vars returns the daemon's own /debug/vars keys, sampled afresh on
	// every request; the shell adds its own.
	Vars func() map[string]any
	// Health returns the keys /healthz answers beside its status (nil =
	// the status alone).
	Health func() map[string]any
}

// Shell is one daemon's shared half. Build it with New; the daemon serves
// Handler, or runs Serve.
type Shell struct {
	cfg     Config
	handler http.Handler
	start   time.Time

	requests     atomic.Uint64
	responses2xx atomic.Uint64
	responses4xx atomic.Uint64
	responses5xx atomic.Uint64
	latency      *report.LatencyHistogram

	draining atomic.Bool
	logMu    sync.Mutex
}

// New mounts GET /healthz and GET /debug/vars on the daemon's routes and
// wraps them all in the request pipeline.
func New(routes *http.ServeMux, cfg Config) *Shell {
	s := &Shell{cfg: cfg, start: time.Now(), latency: report.NewLatencyHistogram()}
	routes.HandleFunc("GET /healthz", s.healthz)
	routes.HandleFunc("GET /debug/vars", s.vars)
	s.handler = s.wrap(routes)
	return s
}

// Handler returns the full request pipeline: routing wrapped with the
// timeout, metrics and access-logging middleware.
func (s *Shell) Handler() http.Handler { return s.handler }

// BeginDrain flips the daemon into draining mode: /healthz answers 503 so
// load balancers stop routing here, while in-flight requests run to
// completion. Call it just before http.Server.Shutdown.
func (s *Shell) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Shell) Draining() bool { return s.draining.Load() }

// wrap puts next behind the request pipeline.
func (s *Shell) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.Now()
		ctx := r.Context()
		if s.cfg.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
			defer cancel()
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		next.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := s.cfg.Now().Sub(start)
		s.observe(rec.status, elapsed)
		s.accessLog(r, rec.status, rec.bytes, elapsed)
	})
}

// observe counts one finished request.
func (s *Shell) observe(status int, elapsed time.Duration) {
	s.requests.Add(1)
	s.latency.Observe(elapsed)
	switch {
	case status >= 500:
		s.responses5xx.Add(1)
	case status >= 400:
		s.responses4xx.Add(1)
	default:
		s.responses2xx.Add(1)
	}
}

// accessLog emits one structured JSON line per request.
func (s *Shell) accessLog(r *http.Request, status int, bytes int64, elapsed time.Duration) {
	if s.cfg.Log == nil {
		return
	}
	line, err := json.Marshal(map[string]any{
		"time":   s.cfg.Now().UTC().Format(time.RFC3339Nano),
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
	s.logMu.Lock()
	defer s.logMu.Unlock()
	//lint:ignore errlint access logging is best-effort by design: a full log disk must not fail requests
	_, _ = s.cfg.Log.Write(append(line, '\n'))
}

// healthz answers liveness probes; a draining daemon reports 503 so
// balancers stop sending new work while in-flight requests finish.
func (s *Shell) healthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{}
	if s.cfg.Health != nil {
		body = s.cfg.Health()
	}
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	body["status"] = status
	WriteJSON(w, code, body)
}

// vars serves the expvar-style metrics document: the daemon's keys and the
// shell's, sampled afresh on every request.
func (s *Shell) vars(w http.ResponseWriter, _ *http.Request) {
	doc := s.cfg.Vars()
	maps.Copy(doc, map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"draining":       s.draining.Load(),

		"requests_total": s.requests.Load(),
		"responses_2xx":  s.responses2xx.Load(),
		"responses_4xx":  s.responses4xx.Load(),
		"responses_5xx":  s.responses5xx.Load(),

		"latency_seconds": s.latency.Snapshot(),
		"latency_summary": s.latency.Summary(),
	})
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	//lint:ignore errlint the response write is best-effort: the client may have hung up
	_, _ = w.Write(append(body, '\n'))
}

// Serve runs the daemon until ctx ends (main passes its SIGINT/SIGTERM
// context) or the listener fails, then drains: /healthz flips to 503 and
// in-flight requests get drainTimeout to finish. Lifecycle lines go to out,
// each prefixed with the daemon's name; banner is the line announcing that
// the daemon is up. Serve never exits the process: main does, on its error.
func (s *Shell) Serve(ctx context.Context, out io.Writer, name, addr, banner string, drainTimeout time.Duration) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	fmt.Fprintf(out, "%s: %s\n", name, banner)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "%s: signal received, draining ...\n", name)
	s.BeginDrain()
	// ctx is done by now; the drain keeps its values but runs on its own
	// deadline.
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintf(out, "%s: drained, bye\n", name)
	return nil
}

// LoadFaults builds the fault injector behind a daemon's -faults flag from
// the schedule at path, announcing chaos mode on out; an empty path means
// no injection (nil).
func LoadFaults(out io.Writer, name, path string) (*fault.Injector, error) {
	if path == "" {
		return nil, nil
	}
	sched, err := fault.LoadSchedule(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s: CHAOS MODE: injecting faults from %s (seed %d, %d rules)\n",
		name, path, sched.Seed, len(sched.Rules))
	return fault.NewInjector(sched), nil
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
