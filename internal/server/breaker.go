package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// breaker is the probe path's circuit breaker. The probe is the advisor's
// only expensive, failure-prone dependency: when it times out or errors
// repeatedly, letting more requests pile onto it just burns worker slots
// that load-shedding then takes out on healthy traffic. The breaker cuts
// the probe off after `threshold` consecutive failures and lets the
// degradation layer answer from stale cache instead.
//
// State machine (documented in DESIGN.md §7):
//
//	closed ──(threshold consecutive failures)──▶ open
//	open ──(cooldown elapsed, next allow())──▶ half-open
//	half-open ──(trial probe succeeds)──▶ closed
//	half-open ──(trial probe fails)──▶ open (cooldown restarts)
//
// In half-open exactly one trial probe is admitted; concurrent requests
// keep seeing "open" until the trial resolves, so one slow recovery probe
// cannot be trampled by the backlog.
type breaker struct {
	threshold int           // consecutive failures to open
	cooldown  time.Duration // open → half-open delay
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped

	opens  atomic.Uint64 // times tripped open, for /debug/vars
	denied atomic.Uint64 // probe admissions refused while open
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a probe may run now. While open it refuses until
// the cooldown elapses, then admits a single half-open trial.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		b.denied.Add(1)
		return false
	default: // half-open: the one trial is already in flight
		b.denied.Add(1)
		return false
	}
}

// onSuccess records a completed probe: any state collapses back to closed.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
}

// onFailure records a failed probe: a half-open trial re-trips
// immediately, a closed breaker trips once the consecutive-failure count
// reaches the threshold.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.trip()
		return
	}
	if b.state == breakerClosed {
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	}
	// A failure reported while already open (a probe admitted before the
	// trip finished late) changes nothing.
}

// onNeutral records a probe that resolved without saying anything about
// the backend's health (the client went away mid-run). A half-open trial
// was inconclusive, so the breaker re-opens and the cooldown restarts; any
// other state is untouched.
func (b *breaker) onNeutral() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = b.now()
	}
}

// trip moves to open; callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.fails = 0
	b.opens.Add(1)
}

// stateName renders the current state for the metrics document.
func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
