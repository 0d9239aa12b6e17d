// Package fault is a deterministic, schedule-driven fault injector for the
// advisor's chaos tests. A Schedule (loadable from JSON) names operations
// in the serving path — probe simulations, recommendation-cache lookups —
// and attaches probabilistic rules that delay, fail or hang them. Every
// decision is a pure function of (schedule seed, operation, per-operation
// call index): under any goroutine interleaving the i-th probe always
// receives the same injected action, so a chaos run is exactly repeatable
// given its schedule and the set of injected faults can be pinned in a
// golden test.
//
// The injector sits behind the interfaces the server already crosses: the
// probe function (internal/server → internal/controller) and the cache
// (internal/server). A nil *Injector is valid everywhere and injects
// nothing, so production builds pay one nil check per instrumented call.
package fault

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/xrand"
)

// Operations instrumented by the serving path.
const (
	// OpProbe guards one analyze probe (the simulated measurement run).
	OpProbe = "probe"
	// OpCacheGet guards one recommendation-cache lookup; an injected error
	// is observed as a cache miss, an injected hang as a slow lookup.
	OpCacheGet = "cache.get"
	// OpCacheAdd guards one recommendation-cache insert; an injected error
	// drops the insert.
	OpCacheAdd = "cache.add"
	// OpRoute guards one routing decision in the fleet router
	// (internal/router); an injected error fails the request before any
	// shard is contacted — a sick ring as seen by a client.
	OpRoute = "route"
	// OpForward guards one forward hop from the router to a shard; an
	// injected error is observed as that shard failing, driving the
	// replica-fallback path without killing a real process.
	OpForward = "forward"
)

// Injection modes.
const (
	// ModeDelay sleeps before letting the operation proceed.
	ModeDelay = "delay"
	// ModeError fails the operation immediately with ErrInjected.
	ModeError = "error"
	// ModeHang blocks until the caller's context is done, then returns the
	// context's error — a stuck dependency as seen through a deadline.
	ModeHang = "hang"
)

// ErrInjected is the error returned by ModeError injections (and wrapped
// into every injected failure), so tests and handlers can tell injected
// faults from organic ones.
var ErrInjected = errors.New("fault: injected error")

// Rule attaches one fault mode to an operation. Rules are evaluated in
// schedule order; the first rule that matches an eligible call and wins
// its probability draw decides the action.
type Rule struct {
	// Op names the instrumented operation (the Op* constants).
	Op string `json:"op"`
	// Mode is the injected behaviour (the Mode* constants).
	Mode string `json:"mode"`
	// Prob is the per-call injection probability in [0, 1].
	Prob float64 `json:"prob"`
	// DelayMS and JitterMS shape ModeDelay: the injected latency is
	// DelayMS plus a uniform draw over [0, JitterMS] milliseconds.
	DelayMS  int `json:"delayMs,omitempty"`
	JitterMS int `json:"jitterMs,omitempty"`
	// After skips the rule for the first After calls of Op; Count then
	// bounds how many further calls the rule stays eligible for
	// (0 = unbounded).
	After int `json:"after,omitempty"`
	Count int `json:"count,omitempty"`
}

func (r *Rule) validate(i int) error {
	switch r.Op {
	case OpProbe, OpCacheGet, OpCacheAdd, OpRoute, OpForward:
	default:
		return fmt.Errorf("fault: rule %d: unknown op %q", i, r.Op)
	}
	switch r.Mode {
	case ModeDelay, ModeError, ModeHang:
	default:
		return fmt.Errorf("fault: rule %d: unknown mode %q", i, r.Mode)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("fault: rule %d: prob %v outside [0, 1]", i, r.Prob)
	}
	if r.DelayMS < 0 || r.JitterMS < 0 {
		return fmt.Errorf("fault: rule %d: negative delay", i)
	}
	if r.After < 0 || r.Count < 0 {
		return fmt.Errorf("fault: rule %d: negative after/count", i)
	}
	return nil
}

// Schedule is a complete, seedable fault plan.
type Schedule struct {
	// Seed drives every probability and jitter draw.
	Seed uint64 `json:"seed"`
	// Rules are evaluated in order per call; first match wins.
	Rules []Rule `json:"rules"`
}

// Validate checks every rule.
func (s *Schedule) Validate() error {
	for i := range s.Rules {
		if err := s.Rules[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// ParseSchedule decodes and validates a JSON schedule, rejecting unknown
// fields so a typoed rule fails loudly instead of injecting nothing.
func ParseSchedule(data []byte) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: parsing schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSchedule reads and parses a schedule file.
func LoadSchedule(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return ParseSchedule(data)
}

// Action is one injection decision. The zero Action means "no fault".
type Action struct {
	// Mode is "" for no injection, else one of the Mode* constants.
	Mode string
	// Delay is the injected latency for ModeDelay.
	Delay time.Duration
}

// Injector hands out deterministic fault decisions for a schedule.
// All methods are safe for concurrent use and safe on a nil receiver
// (a nil Injector injects nothing).
type Injector struct {
	sched Schedule

	mu    sync.Mutex
	calls map[string]uint64 // per-op call index, next to assign
	hits  map[string]uint64 // "op/mode" → injected count, for observability
}

// NewInjector builds an injector for a validated schedule. A nil schedule
// yields a nil injector (inject nothing), so callers can pass through an
// optional configuration directly.
func NewInjector(s *Schedule) *Injector {
	if s == nil {
		return nil
	}
	return &Injector{
		sched: *s,
		calls: make(map[string]uint64),
		hits:  make(map[string]uint64),
	}
}

// DecideAt returns the action for the idx-th call (0-based) of op. It is a
// pure function of (schedule, op, idx) — the golden-schedule test and
// Decide share it.
func (in *Injector) DecideAt(op string, idx uint64) Action {
	if in == nil {
		return Action{}
	}
	// One generator per (seed, op, idx): decisions are independent of the
	// interleaving of other operations and of prior draws.
	r := xrand.New(in.sched.Seed ^ xrand.Mix64(xrand.HashString(op)^xrand.Mix64(idx)))
	for i := range in.sched.Rules {
		rule := &in.sched.Rules[i]
		if rule.Op != op {
			continue
		}
		if idx < uint64(rule.After) {
			continue
		}
		if rule.Count > 0 && idx >= uint64(rule.After+rule.Count) {
			continue
		}
		// Every eligible rule consumes exactly one draw whether or not it
		// fires, so a rule's outcome does not depend on how earlier rules
		// in the list were bounded.
		draw := r.Float64()
		if draw >= rule.Prob {
			continue
		}
		a := Action{Mode: rule.Mode}
		if rule.Mode == ModeDelay {
			d := time.Duration(rule.DelayMS) * time.Millisecond
			if rule.JitterMS > 0 {
				d += time.Duration(r.Float64() * float64(rule.JitterMS) * float64(time.Millisecond))
			}
			a.Delay = d
		}
		return a
	}
	return Action{}
}

// Decide assigns op its next call index and returns the scheduled action,
// recording injected actions in the observability counters.
func (in *Injector) Decide(op string) Action {
	if in == nil {
		return Action{}
	}
	in.mu.Lock()
	idx := in.calls[op]
	in.calls[op] = idx + 1
	in.mu.Unlock()
	a := in.DecideAt(op, idx)
	if a.Mode != "" {
		in.mu.Lock()
		in.hits[op+"/"+a.Mode]++
		in.mu.Unlock()
	}
	return a
}

// Inject executes the next scheduled action for op: it returns nil
// immediately (no fault), sleeps through an injected delay (honouring
// ctx), fails with an error wrapping ErrInjected, or hangs until ctx is
// done and returns its error.
func (in *Injector) Inject(ctx context.Context, op string) error {
	if in == nil {
		return nil
	}
	a := in.Decide(op)
	switch a.Mode {
	case ModeDelay:
		t := time.NewTimer(a.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("%w: delay cut short: %w", ErrInjected, ctx.Err())
		}
	case ModeError:
		return fmt.Errorf("%w (%s call %d)", ErrInjected, op, in.callCount(op)-1)
	case ModeHang:
		<-ctx.Done()
		return fmt.Errorf("%w: hang: %w", ErrInjected, ctx.Err())
	}
	return nil
}

// callCount returns how many calls of op have been decided so far.
func (in *Injector) callCount(op string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[op]
}

// Counts returns the injected-fault counters keyed "op/mode", plus the
// per-op call totals keyed "op/calls", in a fresh map for the metrics
// endpoint. Returns nil on a nil injector.
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, len(in.hits)+len(in.calls))
	for k, v := range in.hits {
		out[k] = v
	}
	for op, n := range in.calls {
		out[op+"/calls"] = n
	}
	return out
}
