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
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
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
	}
	if *faultsPath != "" {
		sched, err := fault.LoadSchedule(*faultsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smtservd: %v\n", err)
			os.Exit(2)
		}
		cfg.Faults = fault.NewInjector(sched)
		fmt.Fprintf(os.Stderr, "smtservd: CHAOS MODE: injecting faults from %s (seed %d, %d rules)\n",
			*faultsPath, sched.Seed, len(sched.Rules))
	}
	if !*quiet {
		cfg.AccessLog = os.Stdout
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtservd: %v\n", err)
		os.Exit(2)
	}

	if err := run(srv, *addr, *archName, *thresh, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "smtservd: %v\n", err)
		os.Exit(1)
	}
}

// run serves until a terminating signal or listener failure, then drains.
// It owns every defer of the daemon's lifetime, so main can os.Exit on its
// error without skipping cleanup (exitlint enforces this split).
func run(srv *server.Server, addr, archName string, thresh float64, drainTimeout time.Duration) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "smtservd: serving on %s (arch=%s threshold=%g)\n",
		addr, archName, thresh)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Drain: stop advertising health, let in-flight requests finish.
	fmt.Fprintln(os.Stderr, "smtservd: signal received, draining ...")
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "smtservd: drained, bye")
	return nil
}
