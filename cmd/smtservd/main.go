// Command smtservd is the online SMT-advisor daemon: a long-running HTTP
// service that scores counter snapshots (POST /v1/metric) and probes
// described workloads on the simulated machine (POST /v1/analyze), answering
// with SMT-level recommendations and the full SMT-selection-metric
// breakdown. See internal/server for the endpoint contracts.
//
// Usage:
//
//	smtservd -addr :8700
//	smtservd -addr :8700 -arch nehalem -workers 8 -queue 32 -timeout 10s
//
// The daemon drains gracefully on SIGINT/SIGTERM: /healthz flips to 503 so
// load balancers stop routing here, in-flight requests run to completion
// (bounded by -drain-timeout), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpx"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8700", "listen address")
		archName     = flag.String("arch", "power7", "default architecture: power7, nehalem or smt8")
		chips        = flag.Int("chips", 1, "default chip count for analyze probes")
		thresh       = flag.Float64("threshold", 0.21, "default decision threshold (calibrated for the simulator; see README)")
		workers      = flag.Int("workers", 0, "max concurrently served requests (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "max requests waiting for a worker before 429 (0 = 2x workers)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request budget")
		cacheSize    = flag.Int("cache", 1024, "recommendation-cache entries (negative disables)")
		cacheTTL     = flag.Duration("cache-ttl", 0, "freshness window for cached recommendations; stale entries are revalidated, and served marked degraded only when revalidation fails (0 = never stale)")
		brkThresh    = flag.Int("breaker-threshold", 5, "consecutive probe failures that open the probe circuit breaker")
		brkCooldown  = flag.Duration("breaker-cooldown", 10*time.Second, "open-breaker wait before a half-open trial probe")
		faultsPath   = flag.String("faults", "", "fault-injection schedule JSON for chaos testing (see internal/fault)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		quiet        = flag.Bool("quiet", false, "suppress the JSON access log")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "smtservd: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	if *drainTimeout <= 0 {
		fmt.Fprintf(os.Stderr, "smtservd: -drain-timeout %v, need > 0\n", *drainTimeout)
		os.Exit(2)
	}

	faults, err := httpx.LoadFaults(os.Stderr, "smtservd", *faultsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtservd: %v\n", err)
		os.Exit(2)
	}
	cfg := server.Config{
		Arch:             *archName,
		Chips:            *chips,
		Threshold:        *thresh,
		Workers:          *workers,
		QueueDepth:       *queue,
		RequestTimeout:   *timeout,
		CacheSize:        *cacheSize,
		CacheTTL:         *cacheTTL,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		Faults:           faults,
	}
	if !*quiet {
		cfg.AccessLog = os.Stdout
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtservd: %v\n", err)
		os.Exit(2)
	}

	// The shell drains on the signal and never exits the process, so
	// every exit stays here in main.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err = srv.Serve(ctx, os.Stderr, "smtservd", *addr,
		fmt.Sprintf("serving on %s (arch=%s threshold=%g)", *addr, *archName, *thresh), *drainTimeout)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtservd: %v\n", err)
		os.Exit(1)
	}
}
