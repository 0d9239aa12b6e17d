// Command smtrouter is the fleet frontend of the SMT advisor: it
// consistent-hashes request fingerprints over N smtservd backend shards,
// forwards /v1/metric and /v1/analyze over the versioned api wire contract
// via the retrying client, and falls back to replica shards in ring order
// when a shard is down. See internal/router for the routing contract.
//
// Usage:
//
//	smtrouter -addr :8600 -shards http://10.0.0.1:8700,http://10.0.0.2:8700
//	smtrouter -addr :8600 -shards ... -replicas 2 -cooldown 1s -timeout 30s
//
// The router drains gracefully on SIGINT/SIGTERM: /healthz flips to 503 so
// load balancers stop routing here, in-flight forwards run to completion
// (bounded by -drain-timeout), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/httpx"
	"repro/internal/router"
)

func main() {
	var (
		addr         = flag.String("addr", ":8600", "listen address")
		shards       = flag.String("shards", "", "comma-separated smtservd base URLs (required)")
		replicas     = flag.Int("replicas", 2, "max distinct shards tried per request, owner first")
		vnodes       = flag.Int("vnodes", 128, "virtual nodes per shard on the hash ring")
		seed         = flag.Uint64("seed", 1, "ring layout and retry-jitter seed")
		timeout      = flag.Duration("timeout", 30*time.Second, "end-to-end budget per routed request")
		hopTimeout   = flag.Duration("hop-timeout", 10*time.Second, "budget per forward attempt to one shard")
		hopAttempts  = flag.Int("hop-attempts", 2, "per-shard attempts before replica fallback")
		cooldown     = flag.Duration("cooldown", time.Second, "how long a failed shard is skipped before being retried")
		faultsPath   = flag.String("faults", "", "fault-injection schedule JSON for chaos testing (see internal/fault)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		quiet        = flag.Bool("quiet", false, "suppress the JSON access log")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "smtrouter: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	if *shards == "" {
		fmt.Fprintln(os.Stderr, "smtrouter: -shards is required (comma-separated smtservd base URLs)")
		os.Exit(2)
	}
	if *drainTimeout <= 0 {
		fmt.Fprintf(os.Stderr, "smtrouter: -drain-timeout %v, need > 0\n", *drainTimeout)
		os.Exit(2)
	}

	faults, err := httpx.LoadFaults(os.Stderr, "smtrouter", *faultsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtrouter: %v\n", err)
		os.Exit(2)
	}
	cfg := router.Config{
		Shards:         splitShards(*shards),
		Replicas:       *replicas,
		VNodes:         *vnodes,
		Seed:           *seed,
		RequestTimeout: *timeout,
		HopTimeout:     *hopTimeout,
		HopAttempts:    *hopAttempts,
		ShardCooldown:  *cooldown,
		Faults:         faults,
	}
	if !*quiet {
		cfg.AccessLog = os.Stdout
	}
	rt, err := router.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtrouter: %v\n", err)
		os.Exit(2)
	}

	// The shell drains on the signal and never exits the process, so
	// every exit stays here in main.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err = rt.Serve(ctx, os.Stderr, "smtrouter", *addr,
		fmt.Sprintf("routing on %s over %d shards (%s)", *addr, len(cfg.Shards), strings.Join(cfg.Shards, ", ")), *drainTimeout)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtrouter: %v\n", err)
		os.Exit(1)
	}
}

// splitShards parses the comma-separated shard list, trimming whitespace
// and dropping empty segments (a trailing comma is tolerated).
func splitShards(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, strings.TrimRight(part, "/"))
		}
	}
	return out
}
