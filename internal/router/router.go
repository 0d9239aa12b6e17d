package router

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/xrand"
)

// Config tunes the fleet router.
type Config struct {
	// Shards are the backend smtservd base URLs, e.g.
	// "http://10.0.0.1:8700". At least one is required.
	Shards []string
	// Replicas bounds how many distinct shards a request may be forwarded
	// to, in ring order, before the router gives up (0 = 2; capped at the
	// shard count). The first is the key's owner; the rest are fallbacks
	// tried only when the preceding shard fails.
	Replicas int
	// VNodes is the number of virtual nodes per shard on the hash ring
	// (0 = 128). More vnodes flatten the load split at the cost of a
	// larger (still tiny) routing table.
	VNodes int
	// Seed drives the ring layout and the per-shard client retry jitter;
	// routers sharing (Shards, VNodes, Seed) route identically.
	Seed uint64
	// RequestTimeout is the end-to-end budget for one routed request,
	// spanning every forward attempt (0 = 30s).
	RequestTimeout time.Duration
	// HopTimeout bounds each single forward attempt to one shard (0 = 10s).
	HopTimeout time.Duration
	// HopAttempts is the per-shard retry budget of the forwarding client
	// (0 = 2; 1 disables per-hop retries — replica fallback still applies).
	HopAttempts int
	// ShardCooldown is how long a shard that failed a forward is skipped
	// before the router routes to it again (0 = 1s). The skip is advisory:
	// when every replica for a key is cooling down, the router tries them
	// anyway rather than failing the request unrouted.
	ShardCooldown time.Duration
	// Faults optionally injects scheduled faults into the routing and
	// forwarding paths for chaos testing (nil = no injection); see
	// fault.OpRoute and fault.OpForward.
	Faults *fault.Injector
	// AccessLog receives one JSON line per request (nil = no logging).
	AccessLog io.Writer
}

// withDefaults fills zero values with production defaults.
func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.VNodes == 0 {
		c.VNodes = 128
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.HopTimeout == 0 {
		c.HopTimeout = 10 * time.Second
	}
	if c.HopAttempts == 0 {
		c.HopAttempts = 2
	}
	if c.ShardCooldown == 0 {
		c.ShardCooldown = time.Second
	}
	return c
}

// validate rejects nonsensical configurations.
func (c Config) validate() error {
	if len(c.Shards) == 0 {
		return errors.New("router: at least one shard is required")
	}
	if c.Replicas < 1 {
		return fmt.Errorf("router: replicas %d, need >= 1", c.Replicas)
	}
	if c.RequestTimeout < 0 || c.HopTimeout < 0 || c.ShardCooldown < 0 {
		return errors.New("router: negative timeout")
	}
	if c.HopAttempts < 1 {
		return fmt.Errorf("router: hop attempts %d, need >= 1", c.HopAttempts)
	}
	return nil
}

// shardState is the router's view of one backend: its forwarding client
// plus passive health (a cooldown stamp set on forward failure).
type shardState struct {
	name string
	cli  *client.Client

	mu        sync.Mutex
	downUntil time.Time

	forwarded atomic.Uint64
	failures  atomic.Uint64
	downs     atomic.Uint64 // up→down transitions (rebalance events)
	recovered atomic.Uint64 // down→up transitions
}

// down reports whether the shard is inside its failure cooldown.
func (sh *shardState) down(now time.Time) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return now.Before(sh.downUntil)
}

// markDown starts (or extends) the shard's cooldown, reporting whether
// this was an up→down transition.
func (sh *shardState) markDown(now time.Time, cooldown time.Duration) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	wasUp := !now.Before(sh.downUntil)
	sh.downUntil = now.Add(cooldown)
	if wasUp {
		sh.downs.Add(1)
	}
	return wasUp
}

// markUp clears the cooldown after a successful forward, reporting whether
// this was a down→up transition.
func (sh *shardState) markUp(now time.Time) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	wasDown := now.Before(sh.downUntil)
	sh.downUntil = time.Time{}
	if wasDown {
		sh.recovered.Add(1)
	}
	return wasDown
}

// Router is the fleet frontend. Build one with New, then run Serve, or
// mount Handler on an http.Server and call BeginDrain before
// http.Server.Shutdown; the embedded daemon shell provides all three.
type Router struct {
	*httpx.Shell

	cfg    Config
	ring   *Ring
	shards map[string]*shardState
	met    metrics
	now    func() time.Time // injectable for cooldown tests
}

// New builds the router from a validated configuration.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Shards, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		shards: make(map[string]*shardState, len(cfg.Shards)),
		now:    time.Now,
	}
	for _, name := range ring.Shards() {
		cli, err := client.New(client.Config{
			BaseURL:        name,
			MaxAttempts:    cfg.HopAttempts,
			AttemptTimeout: cfg.HopTimeout,
			// Per-hop retries must not eat the replica-fallback budget:
			// keep backoff short and bounded.
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
			RetryBudget: cfg.HopTimeout,
			Seed:        xrand.Mix64(cfg.Seed ^ xrand.HashString(name)),
		})
		if err != nil {
			return nil, fmt.Errorf("router: shard %q: %w", name, err)
		}
		rt.shards[name] = &shardState{name: name, cli: cli}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/metric", rt.handleMetric)
	mux.HandleFunc("POST /v1/analyze", rt.handleAnalyze)
	mux.HandleFunc("POST /v1/place", rt.handlePlace)
	rt.Shell = httpx.New(mux, httpx.Config{
		Timeout: cfg.RequestTimeout,
		// Read rt.now per request, so a clock swapped after New applies.
		Now:    func() time.Time { return rt.now() },
		Log:    cfg.AccessLog,
		Vars:   rt.vars,
		Health: rt.health,
	})
	return rt, nil
}

// health adds the router's current view of shard health to /healthz.
func (rt *Router) health() map[string]any {
	now := rt.now()
	shards := make(map[string]string, len(rt.shards))
	for name, sh := range rt.shards {
		if sh.down(now) {
			shards[name] = "down"
		} else {
			shards[name] = "up"
		}
	}
	return map[string]any{"shards": shards}
}

// handleMetric routes POST /v1/metric by the snapshot's canonical
// fingerprint — the identity the shard-side LRU is keyed on, so repeat
// scores of one observation always land on the shard holding its cache
// entry.
func (rt *Router) handleMetric(w http.ResponseWriter, r *http.Request) {
	var req api.MetricRequest
	if err := httpx.DecodeJSON(r, &req); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad metric request: %v", err)
		return
	}
	rt.forward(r.Context(), w, req.Snapshot.Fingerprint(),
		func(ctx context.Context, c *client.Client) (any, bool, error) {
			rec, err := c.Metric(ctx, req)
			return rec, rec.Degraded, err
		})
}

// rejectChips answers a request whose chip count exceeds api.MaxChips with
// the 400 envelope and message a shard sends for it, before the hop, and
// reports whether it did. A shard checks the architecture name before the
// chips, so a body naming an unknown architecture goes on to a shard, which
// answers for the name as it would without the router. The shard's
// per-workload thread bound depends on the shard's default architecture and
// chip count, so it stays at the shard.
func rejectChips(w http.ResponseWriter, archName string, chips int) bool {
	if chips <= api.MaxChips {
		return false
	}
	if _, err := arch.ByName(archName); archName != "" && err != nil {
		return false
	}
	httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "chips %d: exceeds the limit of %d", chips, api.MaxChips)
	return true
}

// handleAnalyze routes POST /v1/analyze by analyzeRouteKey, so identical
// analyze calls coalesce on one shard's flight group.
func (rt *Router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req api.AnalyzeRequest
	if err := httpx.DecodeJSON(r, &req); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad analyze request: %v", err)
		return
	}
	// A shard checks the threshold before the chips too; it answers a
	// negative one.
	if req.Threshold >= 0 && rejectChips(w, req.Arch, req.Chips) {
		return
	}
	key, err := analyzeRouteKey(req)
	if err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "canonicalising request: %v", err)
		return
	}
	rt.forward(r.Context(), w, key,
		func(ctx context.Context, c *client.Client) (any, bool, error) {
			rec, err := c.Analyze(ctx, req)
			return rec, rec.Degraded, err
		})
}

// handlePlace routes POST /v1/place by placeRouteKey, which ignores the
// order of workloads and anti-affinity rules exactly as the shard's own
// cache key (the canonical resolved input) does: a reordered repeat of a
// placement lands on the shard that cached the first answer, and
// concurrent reorderings coalesce in that shard's flight group.
func (rt *Router) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req api.PlaceRequest
	if err := httpx.DecodeJSON(r, &req); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad place request: %v", err)
		return
	}
	if rejectChips(w, req.Arch, req.Chips) {
		return
	}
	key, err := placeRouteKey(req)
	if err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "canonicalising request: %v", err)
		return
	}
	rt.forward(r.Context(), w, key,
		func(ctx context.Context, c *client.Client) (any, bool, error) {
			resp, err := c.Place(ctx, req)
			return resp, resp.Degraded, err
		})
}

// analyzeRouteKey is the shard key of an analyze request: the hash of req
// re-marshalled, which covers the workload identity plus every probe
// parameter — the same composite the shard's cache key is built from.
func analyzeRouteKey(req api.AnalyzeRequest) (uint64, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	return xrand.HashBytes(b), nil
}

// placeRouteKey is the shard key of a placement request: the hash of a
// copy of req re-marshalled with its order-free parts in one order —
// workloads sorted by name, anti-affinity rules oriented so A <= B, sorted
// and deduplicated. Permuting the workloads or reordering, flipping or
// repeating rules keeps the key. Duplicate workload names (which the shard
// rejects) sort by their JSON form, so even such a request keys the same
// in any order. Defaulted fields are left as sent: resolving them needs
// the architecture table, and the router reads only the api types so that
// it links no simulator.
func placeRouteKey(req api.PlaceRequest) (uint64, error) {
	type entry struct {
		w   api.PlaceWorkload
		raw []byte
	}
	ws := make([]entry, len(req.Workloads))
	for i, w := range req.Workloads {
		raw, err := json.Marshal(w)
		if err != nil {
			return 0, err
		}
		ws[i] = entry{w, raw}
	}
	slices.SortFunc(ws, func(a, b entry) int {
		return cmp.Or(strings.Compare(a.w.Name, b.w.Name), bytes.Compare(a.raw, b.raw))
	})
	canon := req
	canon.Workloads = make([]api.PlaceWorkload, len(ws))
	for i, e := range ws {
		canon.Workloads[i] = e.w
	}
	canon.AntiAffinity = make([]api.AffinityRule, len(req.AntiAffinity))
	for i, rule := range req.AntiAffinity {
		if rule.B < rule.A {
			rule.A, rule.B = rule.B, rule.A
		}
		canon.AntiAffinity[i] = rule
	}
	slices.SortFunc(canon.AntiAffinity, func(a, b api.AffinityRule) int {
		return cmp.Or(strings.Compare(a.A, b.A), strings.Compare(a.B, b.B))
	})
	canon.AntiAffinity = slices.Compact(canon.AntiAffinity)
	b, err := json.Marshal(canon)
	if err != nil {
		return 0, err
	}
	return xrand.HashBytes(b), nil
}

// forward routes one request: it derives the replica preference order from
// the ring, skips shards inside their failure cooldown (unless every
// candidate is cooling down — then they are tried anyway as a last
// resort), and walks the candidates until one answers. Shard failures
// update the passive-health view so subsequent requests rebalance onto the
// surviving replicas immediately.
func (rt *Router) forward(ctx context.Context, w http.ResponseWriter, key uint64, call func(ctx context.Context, c *client.Client) (any, bool, error)) {
	if err := rt.cfg.Faults.Inject(ctx, fault.OpRoute); err != nil {
		rt.met.unroutable.Add(1)
		httpx.WriteError(w, http.StatusServiceUnavailable, api.CodeNoShards, "routing failed: %v", err)
		return
	}
	order := rt.ring.Order(key, rt.cfg.Replicas)
	now := rt.now()
	up := make([]*shardState, 0, len(order))
	down := make([]*shardState, 0, len(order))
	for _, name := range order {
		sh := rt.shards[name]
		if sh.down(now) {
			down = append(down, sh)
		} else {
			up = append(up, sh)
		}
	}
	candidates := append(up, down...)

	var lastErr error
	for i, sh := range candidates {
		if i > 0 {
			rt.met.fallback.Add(1)
		}
		if err := rt.cfg.Faults.Inject(ctx, fault.OpForward); err != nil {
			sh.failures.Add(1)
			rt.shardFailed(sh)
			lastErr = err
			continue
		}
		body, degraded, err := call(ctx, sh.cli)
		if err == nil {
			sh.forwarded.Add(1)
			if sh.markUp(rt.now()) {
				rt.met.recoveries.Add(1)
			}
			if degraded {
				w.Header().Set("Warning", fmt.Sprintf("110 smtrouter %q", "degraded answer from shard"))
			}
			httpx.WriteJSON(w, http.StatusOK, body)
			return
		}
		sh.failures.Add(1)
		lastErr = err
		// Transport failures (the shard-kill case) and transient shard
		// errors fall back to the next replica. A failure every replica
		// would reproduce verbatim (bad request, deterministic probe
		// failure) propagates, or each malformed request would burn the
		// whole replica set.
		if !client.Retryable(err) {
			rt.propagate(w, err)
			return
		}
		rt.shardFailed(sh)
		if ctx.Err() != nil {
			break
		}
	}
	rt.met.unroutable.Add(1)
	w.Header().Set("Retry-After", "1")
	httpx.WriteError(w, http.StatusServiceUnavailable, api.CodeNoShards,
		"no healthy shard answered (tried %d of %d replicas): %v", len(candidates), len(order), lastErr)
}

// shardFailed records a fallback-eligible forward failure in the
// passive-health view.
func (rt *Router) shardFailed(sh *shardState) {
	if sh.markDown(rt.now(), rt.cfg.ShardCooldown) {
		rt.met.rebalances.Add(1)
	}
}

// propagate re-emits a shard-reported api.Error verbatim — same status,
// code and message — so the router is transparent to clients for
// non-retryable failures.
func (rt *Router) propagate(w http.ResponseWriter, err error) {
	var e *api.Error
	if !errors.As(err, &e) {
		httpx.WriteError(w, http.StatusBadGateway, api.CodeNoShards, "shard failed: %v", err)
		return
	}
	status := e.Status
	if status == 0 {
		status = http.StatusBadGateway
	}
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	httpx.WriteJSON(w, status, *e)
}
