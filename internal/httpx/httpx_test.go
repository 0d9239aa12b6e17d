package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// newTestShell mounts one route that answers with the status named by its
// ?code query, beside a daemon counter in the vars document and a health
// key.
func newTestShell() *Shell {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /answer", func(w http.ResponseWriter, r *http.Request) {
		code := http.StatusOK
		switch r.URL.Query().Get("code") {
		case "404":
			code = http.StatusNotFound
		case "503":
			code = http.StatusServiceUnavailable
		}
		WriteJSON(w, code, map[string]string{})
	})
	return New(mux, Config{
		Now:    time.Now,
		Vars:   func() map[string]any { return map[string]any{"own_total": 7} },
		Health: func() map[string]any { return map[string]any{"shards": map[string]string{"a": "up"}} },
	})
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// TestVarsMergesShellCounters: the vars document carries the daemon's keys
// and the shell's, with every finished request counted in its class.
func TestVarsMergesShellCounters(t *testing.T) {
	s := newTestShell()
	h := s.Handler()
	for _, path := range []string{"/answer", "/answer", "/answer?code=404", "/answer?code=503"} {
		get(t, h, path)
	}
	var vars map[string]any
	if err := json.Unmarshal(get(t, h, "/debug/vars").Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	// The vars request itself is counted only after it is answered.
	for key, want := range map[string]float64{
		"own_total": 7, "requests_total": 4,
		"responses_2xx": 2, "responses_4xx": 1, "responses_5xx": 1,
	} {
		if got, _ := vars[key].(float64); got != want {
			t.Errorf("%s = %v, want %v", key, vars[key], want)
		}
	}
	for _, key := range []string{"uptime_seconds", "draining", "latency_seconds", "latency_summary"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("vars missing %q", key)
		}
	}
}

// TestHealthzAddsDaemonKeys: /healthz answers the daemon's keys beside the
// status, and flips to 503 draining on BeginDrain.
func TestHealthzAddsDaemonKeys(t *testing.T) {
	s := newTestShell()
	for _, c := range []struct {
		code int
		body string
	}{
		{http.StatusOK, `{"shards":{"a":"up"},"status":"ok"}` + "\n"},
		{http.StatusServiceUnavailable, `{"shards":{"a":"up"},"status":"draining"}` + "\n"},
	} {
		if w := get(t, s.Handler(), "/healthz"); w.Code != c.code || w.Body.String() != c.body {
			t.Errorf("healthz %d %q, want %d %q", w.Code, w.Body.String(), c.code, c.body)
		}
		s.BeginDrain()
	}
	if !s.Draining() {
		t.Error("Draining() false after BeginDrain")
	}
}

// syncBuffer is a bytes.Buffer safe to write from Serve's goroutine while
// the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestServeDrainsOnCancel: Serve announces itself, drains when its context
// ends, and returns nil once the listener has shut down.
func TestServeDrainsOnCancel(t *testing.T) {
	s := newTestShell()
	var out syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, &out, "testd", "127.0.0.1:0", "up", 5*time.Second) }()
	deadline := time.Now().Add(5 * time.Second)
	for out.String() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if want := "testd: up\ntestd: signal received, draining ...\ntestd: drained, bye\n"; out.String() != want {
		t.Errorf("lifecycle lines %q, want %q", out.String(), want)
	}
	if !s.Draining() {
		t.Error("Serve returned without draining")
	}
}

// TestServeListenError: a listener that cannot start ends Serve with its
// error and no drain.
func TestServeListenError(t *testing.T) {
	s := newTestShell()
	var out syncBuffer
	if err := s.Serve(context.Background(), &out, "testd", "127.0.0.1:-1", "up", time.Second); err == nil {
		t.Fatal("Serve on an invalid address returned nil")
	}
	if s.Draining() {
		t.Error("a failed listener drained")
	}
}

// TestLoadFaults: no path means no injector; a schedule is announced as
// chaos mode; an unreadable one is an error.
func TestLoadFaults(t *testing.T) {
	var out bytes.Buffer
	if in, err := LoadFaults(&out, "testd", ""); in != nil || err != nil || out.Len() != 0 {
		t.Errorf("empty path: %v, %v, %q", in, err, out.String())
	}
	in, err := LoadFaults(&out, "testd", "../../scripts/chaos-schedule.json")
	if err != nil || in == nil {
		t.Fatalf("chaos schedule: %v, %v", in, err)
	}
	if !bytes.HasPrefix(out.Bytes(), []byte("testd: CHAOS MODE: injecting faults from ../../scripts/chaos-schedule.json (seed ")) {
		t.Errorf("chaos line %q", out.String())
	}
	if _, err := LoadFaults(&out, "testd", "no-such-schedule.json"); err == nil {
		t.Error("missing schedule loaded")
	}
}
