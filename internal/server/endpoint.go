package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/api"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/httpx"
)

// The request pipeline every POST endpoint runs, after its handler has
// decoded, validated and keyed the request:
//
//	cache lookup ──(fresh)──▶ 200, cached
//	  │ miss or stale
//	flight join ──(waiter)──▶ park on the leader's outcome
//	  │ leader
//	cache double-check → admission → breaker gate → computation
//	  → breaker-outcome classification → cache fill
//	  │
//	outcome → 200, or the degradation ladder: the request's own stale
//	cached answer (Warning 110) → a partial answer (Warning 199) → the
//	api.Error envelope
//
// /v1/analyze and /v1/place run all of it. /v1/metric runs the lookup,
// admission, computation, cache fill and outcome mapping only: its scoring
// is cheap and simulates nothing, so it shares no flight, needs no leader
// double-check and sits behind no breaker. An endpoint differs from the
// others only by the hooks below; the rungs, their order, the messages
// and the counters are shared.

// endpoint is one POST endpoint's configuration of the pipeline; R is the
// answer type it caches and serves.
type endpoint[R any] struct {
	s *Server
	// noun names the computation in failure messages ("probe",
	// "placement"); answer names what a stale rung serves
	// ("recommendation", "placement").
	noun, answer string
	// flights coalesces concurrent misses of one key; nil for /v1/metric.
	flights *flightGroup[R]
	// coalesced counts a request that attached to another's flight.
	coalesced func()
	// marks exposes the answer fields the pipeline sets.
	marks func(v *R) marks
	// partial reports whether an answer returned alongside a deadline error
	// is usable, and the reason to mark it with (nil: never usable).
	partial func(v R) (reason string, ok bool)
	// clientErr is the computation error that is the client's doing: it
	// answers 400 and counts neither for nor against the breaker (nil:
	// none).
	clientErr error
}

// marks points at the Cached, Degraded and Warning fields of one answer.
type marks struct {
	cached, degraded *bool
	warning          *string
}

// serve answers one request for key, computing a missing or stale answer
// with compute.
func (e *endpoint[R]) serve(w http.ResponseWriter, r *http.Request, key string, compute func(context.Context) (R, error)) {
	ctx := r.Context()
	v, fresh, found := e.lookup(ctx, key)
	if found && fresh {
		*e.marks(&v).cached = true
		httpx.WriteJSON(w, http.StatusOK, v)
		return
	}
	var stale *R
	if found {
		stale = &v
	}
	if e.flights == nil {
		// No flight to share: this request computes for itself.
		out, err := e.run(ctx, key, compute)
		e.reply(w, out, err, stale)
		return
	}
	f, leader := e.flights.join(key)
	if leader {
		e.s.met.flights.Add(1)
		f.val, f.err = e.run(ctx, key, compute)
		e.flights.finish(key, f)
	} else {
		// Waiter: park for the leader's outcome, holding no worker slot.
		e.coalesced()
		select {
		case <-f.done:
		case <-ctx.Done():
			e.s.met.timeouts.Add(1)
			if stale != nil {
				e.serveStale(w, *stale, "request expired awaiting coalesced "+e.noun)
				return
			}
			httpx.WriteError(w, http.StatusGatewayTimeout, api.CodeProbeTimeout, "request expired awaiting coalesced %s: %v", e.noun, ctx.Err())
			return
		}
	}
	e.reply(w, f.val, f.err, stale)
}

// run computes key's answer, on the leader's side of a flight or for a
// request computing alone. It never writes a response: the outcome fans
// out through the flight, and reply maps it onto each request.
func (e *endpoint[R]) run(ctx context.Context, key string, compute func(context.Context) (R, error)) (R, error) {
	s := e.s
	// Only the simulating endpoints, those with flights, double-check the
	// cache and sit behind the breaker.
	gated := e.flights != nil
	var zero R
	if gated {
		// Double-check the cache under flight leadership: a previous flight
		// for this key may have completed between this request's cache miss
		// and its join, and that freshly cached answer must win over a
		// duplicate computation.
		if v, fresh, found := e.lookup(ctx, key); found && fresh {
			*e.marks(&v).cached = true
			return v, nil
		}
	}
	if err := s.lim.acquire(ctx); err != nil {
		if errors.Is(err, ErrQueueFull) {
			return zero, errFlightShed
		}
		return zero, fmt.Errorf("%w: %v", errFlightExpired, err)
	}
	defer s.lim.release()
	// The breaker gate sits after admission so a half-open trial that wins
	// the gate always runs (and therefore always reports back): every
	// computation below passes through onSuccess, onFailure or onNeutral.
	if gated && !s.brk.allow() {
		return zero, errFlightBreaker
	}
	v, err := compute(ctx)
	if gated {
		timedOut, canceled := abortCause(err)
		switch {
		case err == nil:
			s.brk.onSuccess()
		case errors.Is(err, e.clientErr):
			s.brk.onNeutral()
		case timedOut || !canceled:
			// Only deadline and organic failures count against the breaker.
			s.brk.onFailure()
		default:
			// A client that went away is not a sick computation.
			s.brk.onNeutral()
		}
	}
	if err != nil {
		return v, err
	}
	if err := s.cfg.Faults.Inject(ctx, fault.OpCacheAdd); err == nil {
		s.cache.add(key, v)
	}
	return v, nil
}

// abortCause reports whether err is a deadline expiry and whether it is a
// cancellation.
func abortCause(err error) (timedOut, canceled bool) {
	return errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled) || errors.Is(err, cpu.ErrCanceled)
}

// reply maps one outcome onto one request's response, applying that
// request's own degradation fallback. Breaker bookkeeping already happened
// exactly once, in run.
func (e *endpoint[R]) reply(w http.ResponseWriter, v R, err error, stale *R) {
	if err == nil {
		httpx.WriteJSON(w, http.StatusOK, v)
		return
	}
	if errors.Is(err, e.clientErr) {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	timedOut, canceled := abortCause(err)
	var cause string
	var fail api.Error
	switch {
	case errors.Is(err, errFlightShed):
		e.s.met.shed.Add(1)
		cause = "server saturated"
		fail = api.Error{Status: http.StatusTooManyRequests, Code: api.CodeRateLimited,
			Message: "worker queue full, retry later", RetryAfter: 1}
	case errors.Is(err, errFlightExpired):
		e.s.met.timeouts.Add(1)
		cause = "request expired while queued"
		fail = api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeQueueTimeout,
			Message: err.Error()}
	case errors.Is(err, errFlightBreaker):
		cause = "probe circuit breaker open"
		fail = api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeBreakerOpen,
			Message: "probe circuit breaker open, retry later", RetryAfter: 1}
	case timedOut || canceled:
		e.s.met.timeouts.Add(1)
		cause = fmt.Sprintf("%s aborted (%v)", e.noun, err)
		fail = api.Error{Status: http.StatusGatewayTimeout, Code: api.CodeProbeTimeout,
			Message: fmt.Sprintf("%s aborted: %v", e.noun, err)}
		if stale == nil && e.partial != nil {
			if reason, ok := e.partial(v); ok {
				// The deadline cut the computation short but it still
				// produced an answer from the work it finished: serve that
				// rather than discard it.
				e.s.met.partialServed.Add(1)
				e.serveDegraded(w, v, 199, reason)
				return
			}
		}
	default:
		cause = fmt.Sprintf("%s failed (%v)", e.noun, err)
		fail = api.Error{Status: http.StatusInternalServerError, Code: api.CodeProbeFailed,
			Message: fmt.Sprintf("%s failed: %v", e.noun, err)}
	}
	if stale != nil {
		e.serveStale(w, *stale, cause)
		return
	}
	if fail.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(fail.RetryAfter))
	}
	httpx.WriteJSON(w, fail.Status, fail)
}

// serveStale answers 200 with a stale cached answer, marked degraded, when
// the fresh path is unavailable.
func (e *endpoint[R]) serveStale(w http.ResponseWriter, v R, cause string) {
	*e.marks(&v).cached = true
	e.s.met.staleServed.Add(1)
	e.serveDegraded(w, v, 110, cause+": serving last known "+e.answer)
}

// serveDegraded answers 200 with v marked degraded for reason, carrying
// the RFC 7234 Warning header: code 110 ("response is stale") for stale
// answers, 199 for partial ones.
func (e *endpoint[R]) serveDegraded(w http.ResponseWriter, v R, code int, reason string) {
	m := e.marks(&v)
	*m.degraded = true
	if *m.warning != "" {
		*m.warning = reason + "; " + *m.warning
	} else {
		*m.warning = reason
	}
	e.s.met.degraded.Add(1)
	w.Header().Set("Warning", fmt.Sprintf("%d smtservd %q", code, reason))
	httpx.WriteJSON(w, http.StatusOK, v)
}

// lookup reads key's cached answer through the fault injector: an injected
// failure is observed as a miss, an injected delay as a slow lookup. The
// LRU holds every endpoint's answers under disjoint key prefixes, so the
// entry under key is always an R.
func (e *endpoint[R]) lookup(ctx context.Context, key string) (v R, fresh, found bool) {
	if err := e.s.cfg.Faults.Inject(ctx, fault.OpCacheGet); err != nil {
		return v, false, false
	}
	c, fresh, found := e.s.cache.get(key, e.s.cfg.CacheTTL)
	if !found {
		return v, false, false
	}
	return c.(R), fresh, true
}
