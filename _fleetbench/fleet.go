package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// fleet is one running advisor fleet: two smtservd shards behind one
// smtrouter, each a child process listening on a loopback port.
type fleet struct {
	router string   // router base URL
	shards []string // shard base URLs
	procs  []*exec.Cmd
}

// shardArgs are the flags every shard runs with. The in-process reference
// server in verify.go is configured to match, so the two answer with the
// same bytes.
var shardArgs = []string{"-arch", "power7", "-chips", "1", "-threshold", "0.21",
	"-workers", "2", "-queue", "16", "-timeout", "60s", "-quiet"}

// shardEnv gives each shard one Go processor: the fleet models one shard
// per core, so a placement's pair co-runs simulate one after another in
// their shard rather than in parallel across cores. On a 2-vCPU VM two
// parallel co-runs slowed by up to 1.7x whenever one vCPU was contended,
// while one-processor shards stayed within 8% over the same runs.
// Answers are bit-identical at any GOMAXPROCS, so the referee is
// unaffected.
var shardEnv = []string{"GOMAXPROCS=1"}

// startFleet launches two shards and a router and returns once all three
// answer /healthz with 200. The time it takes is the benchmark's set-up
// time. Child stderr goes to logDir.
func startFleet(ctx context.Context, binDir, logDir string) (*fleet, time.Duration, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{router: fmt.Sprintf("http://127.0.0.1:%d", ports[0])}
	for _, p := range ports[1:] {
		f.shards = append(f.shards, fmt.Sprintf("http://127.0.0.1:%d", p))
	}

	start := time.Now()
	for i, u := range f.shards {
		args := append([]string{"-addr", strings.TrimPrefix(u, "http://")}, shardArgs...)
		if err := f.spawn(filepath.Join(binDir, "smtservd"), args, shardEnv, filepath.Join(logDir, fmt.Sprintf("shard%d.log", i))); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	rargs := []string{"-addr", strings.TrimPrefix(f.router, "http://"),
		"-shards", strings.Join(f.shards, ","), "-timeout", "90s", "-hop-timeout", "60s", "-quiet"}
	if err := f.spawn(filepath.Join(binDir, "smtrouter"), rargs, nil, filepath.Join(logDir, "router.log")); err != nil {
		f.stop()
		return nil, 0, err
	}
	for _, u := range append([]string{f.router}, f.shards...) {
		if err := waitHealthy(ctx, u); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(start), nil
}

// spawn starts bin with args and the benchmark's environment plus env.
func (f *fleet) spawn(bin string, args, env []string, logPath string) error {
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = io.Discard
	cmd.Stderr = logf
	// The child dies with the benchmark even if the benchmark is killed
	// before it can stop the fleet.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	// The child holds its own descriptor; ours is no longer needed.
	logf.Close()
	f.procs = append(f.procs, cmd)
	return nil
}

// stop terminates every child (SIGTERM, then SIGKILL after a grace period)
// and waits until each has exited.
func (f *fleet) stop() {
	for _, c := range f.procs {
		_ = c.Process.Signal(syscall.SIGTERM) // already-exited children are reaped below
	}
	for _, c := range f.procs {
		done := make(chan struct{})
		go func(c *exec.Cmd) {
			_ = c.Wait() // a SIGTERM exit status is expected, not a failure
			close(done)
		}(c)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = c.Process.Kill()
			<-done
		}
	}
	f.procs = nil
}

// freePorts reserves n distinct loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// waitHealthy polls base/healthz until it answers 200. A set-up takes about
// 10 ms, so the poll interval is a fortieth of it; a refused connection
// costs the starting daemons next to nothing.
func waitHealthy(ctx context.Context, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	c := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became healthy: %w", base, ctx.Err())
		case <-time.After(250 * time.Microsecond):
		}
	}
}

// vars fetches a /debug/vars document.
func vars(ctx context.Context, c *http.Client, base string) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/debug/vars: status %d", base, resp.StatusCode)
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("%s/debug/vars: %w", base, err)
	}
	return v, nil
}

// num reads a numeric field of a vars document, following dotted paths
// into nested objects ("latency_seconds.count").
func num(v map[string]any, path string) (float64, error) {
	parts := strings.Split(path, ".")
	var cur any = v
	for _, p := range parts {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("vars: %s: not an object at %q", path, p)
		}
		cur = m[p]
	}
	f, ok := cur.(float64)
	if !ok {
		return 0, errors.New("vars: " + path + ": not a number")
	}
	return f, nil
}
