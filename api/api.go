// Package api defines the versioned wire contract of the SMT advisor
// service (smtservd): the request and response types of every /v1 endpoint
// and the single error envelope every non-2xx response carries. The server
// (internal/server) and the public client (repro/client) both compile
// against these types, so the JSON contract lives in exactly one place.
//
// # Versioning contract
//
// The endpoint paths carry the major version ("/v1/..."). Within a major
// version the contract only grows: new OPTIONAL response fields (emitted
// with omitempty) and new optional request fields may be added, but
// existing field names, types and JSON spellings never change and required
// fields are never removed. A change that cannot satisfy that rule ships
// as a new path prefix ("/v2/...") with its own types, and v1 keeps
// serving unchanged. Clients must therefore ignore unknown response
// fields; the server, by contrast, rejects unknown request fields so
// misspelled options fail loudly instead of silently doing nothing.
//
// # Degraded answers
//
// A response with Degraded set was produced on the graceful-degradation
// path: either a stale cached recommendation served while the probe path
// was unavailable (circuit breaker open, worker queue saturated, probe
// deadline exceeded) or a recommendation computed from a partial probe cut
// short by the request deadline. Degraded responses also carry an HTTP
// Warning header (code 110 for stale answers, 199 for partial probes) and
// explain themselves in the Warning field. Callers that cannot tolerate an
// approximate answer should retry later; callers driving a live SMT
// reconfiguration loop generally prefer a slightly stale answer over none.
package api

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/workload"
)

// Version is the wire-contract major version these types describe.
const Version = "v1"

// Endpoint paths served by smtservd for this Version.
const (
	// PathMetric scores a counter snapshot the client measured itself.
	PathMetric = "/v1/metric"
	// PathAnalyze probes a described workload and recommends an SMT level.
	PathAnalyze = "/v1/analyze"
	// PathPlace co-simulates a workload mix and assigns threads to cores.
	PathPlace = "/v1/place"
	// PathHealthz is the liveness/readiness probe (503 while draining).
	PathHealthz = "/healthz"
	// PathVars is the expvar-style metrics document.
	PathVars = "/debug/vars"
)

// MaxChips bounds the chip count of an /v1/analyze or /v1/place request
// and of a server's default machine. It is the largest machine the paper
// evaluates, two POWER7 chips. Each simulated chip costs megabytes of
// cache arrays, and the placement solver scans every core for every
// thread, so without a bound one small request could exhaust a shard.
const MaxChips = 2

// MetricRequest scores a counter snapshot the client measured itself — the
// PMU-sampling path of an online optimizer. The snapshot should be an
// interval delta captured at the architecture's maximum SMT level (the only
// level at which the paper shows the metric is trustworthy).
type MetricRequest struct {
	// Arch names the architecture ("power7", "nehalem", "smt8"); empty
	// uses the server default.
	Arch string `json:"arch,omitempty"`
	// Threshold overrides the server's decision threshold when > 0.
	Threshold float64 `json:"threshold,omitempty"`
	// Snapshot is the counter observation to score.
	Snapshot counters.Snapshot `json:"snapshot"`
}

// AnalyzeRequest asks the server to probe a described workload on the
// simulated machine and recommend an SMT level for it. Exactly one of
// Bench (a built-in Table-I benchmark name) or Spec (an inline custom
// workload) must be set.
type AnalyzeRequest struct {
	Arch      string         `json:"arch,omitempty"`
	Chips     int            `json:"chips,omitempty"`
	Bench     string         `json:"bench,omitempty"`
	Spec      *workload.Spec `json:"spec,omitempty"`
	Seed      uint64         `json:"seed,omitempty"`
	Threshold float64        `json:"threshold,omitempty"`
}

// Term is one observed mix-term fraction against its architectural ideal.
type Term struct {
	Name     string  `json:"name"`
	Observed float64 `json:"observed"`
	Ideal    float64 `json:"ideal"`
}

// Recommendation is the advisor's answer: the decision plus the full
// metric breakdown behind it.
type Recommendation struct {
	Arch string `json:"arch"`
	// MeasuredLevel is the SMT level the observation was taken at (for
	// analyze probes, always the architecture's maximum).
	MeasuredLevel int `json:"measuredLevel"`
	// RecommendedLevel is the advised SMT level: one exposed level below
	// MeasuredLevel when the metric exceeds the threshold, otherwise
	// MeasuredLevel itself.
	RecommendedLevel int `json:"recommendedLevel"`
	// LowerSMT is the paper's decision bit: metric > threshold.
	LowerSMT  bool    `json:"lowerSMT"`
	Threshold float64 `json:"threshold"`

	Metric       float64 `json:"metric"`
	MixDeviation float64 `json:"mixDeviation"`
	DispHeld     float64 `json:"dispHeld"`
	Scalability  float64 `json:"scalability"`
	Terms        []Term  `json:"terms"`

	// WallCycles and Bench are set on analyze responses.
	WallCycles int64  `json:"wallCycles,omitempty"`
	Bench      string `json:"bench,omitempty"`

	// Warning flags observations the metric cannot be trusted on (a
	// snapshot measured below the maximum SMT level — paper Figs. 11-12)
	// and, on degraded answers, explains why the answer is degraded.
	Warning string `json:"warning,omitempty"`
	// Fingerprint is the canonical identity of the scored observation, for
	// client-side correlation with the cache.
	Fingerprint string `json:"fingerprint"`
	// Cached reports that the recommendation was served from the LRU.
	Cached bool `json:"cached"`
	// Degraded marks an answer produced on the graceful-degradation path:
	// a stale cached recommendation or a partial probe (see the package
	// comment). Absent on every fresh answer.
	Degraded bool `json:"degraded,omitempty"`
}

// PlaceWorkload names one workload of a placement mix. Exactly one of
// Bench (a built-in Table-I benchmark name) or Spec (an inline custom
// workload) must be set. Threads is the number of placement units the
// workload contributes; 0 means 1.
type PlaceWorkload struct {
	Name    string         `json:"name"`
	Bench   string         `json:"bench,omitempty"`
	Spec    *workload.Spec `json:"spec,omitempty"`
	Threads int            `json:"threads,omitempty"`
}

// AffinityRule forbids co-locating any thread of workload A with any
// thread of workload B on the same core. A rule with A == B forbids the
// workload's own threads from sharing a core with each other.
type AffinityRule struct {
	A string `json:"a"`
	B string `json:"b"`
}

// PlaceRequest asks the server to co-simulate a workload mix and assign
// every thread to a core of the target machine shape.
type PlaceRequest struct {
	Arch  string `json:"arch,omitempty"`
	Chips int    `json:"chips,omitempty"`
	// MaxPerCore caps the threads sharing one core; 0 means the
	// architecture's maximum SMT width, and it may not exceed it.
	MaxPerCore int `json:"maxPerCore,omitempty"`
	// Seed drives the co-simulations and the solver's tie-breaking
	// order. The same request (any field order) with the same seed
	// yields a byte-identical response.
	Seed         uint64          `json:"seed,omitempty"`
	AntiAffinity []AffinityRule  `json:"antiAffinity,omitempty"`
	Workloads    []PlaceWorkload `json:"workloads"`
}

// PairScore is the co-run compatibility of one workload pair: the
// SMT-selection metric of the pair sharing one core, higher meaning more
// contention (worse to co-locate). A == B scores the workload against a
// second thread of itself.
type PairScore struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	Score      float64 `json:"score"`
	WallCycles int64   `json:"wallCycles"`
}

// Assignment is the thread set placed on one core. Core is the core
// index within Chip; Threads lists the owning workload of each placed
// thread, sorted by name.
type Assignment struct {
	Chip    int      `json:"chip"`
	Core    int      `json:"core"`
	Threads []string `json:"threads"`
}

// PlaceResponse is the advisor's placement: one Assignment per occupied
// core plus the pair-compatibility scores the solver minimized.
type PlaceResponse struct {
	Arch  string `json:"arch"`
	Chips int    `json:"chips"`
	// SMTLevel is the architecture's maximum SMT width (the level every
	// pair co-run was scored at); MaxPerCore is the effective cap the
	// solver honored.
	SMTLevel   int `json:"smtLevel"`
	MaxPerCore int `json:"maxPerCore"`
	// TotalScore is the sum of pair scores across all co-located thread
	// pairs — the objective the solver minimized.
	TotalScore  float64      `json:"totalScore"`
	Assignments []Assignment `json:"assignments"`
	PairScores  []PairScore  `json:"pairScores"`

	// Warning, Fingerprint, Cached and Degraded carry the same
	// degradation contract as Recommendation: Fingerprint identifies the
	// canonical resolved request, Degraded marks stale or partial
	// answers (HTTP Warning 110 / 199).
	Warning     string `json:"warning,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
	Degraded    bool   `json:"degraded,omitempty"`
}

// Machine-readable error codes carried by the Error envelope. Clients
// branch on the code; the message is for humans and its wording is not
// part of the contract.
const (
	// CodeBadRequest: the request is malformed or fails validation; fix
	// the request — retrying it unchanged cannot succeed.
	CodeBadRequest = "bad_request"
	// CodeRateLimited: every worker and queue slot is occupied; back off
	// and retry (the response carries Retry-After).
	CodeRateLimited = "rate_limited"
	// CodeQueueTimeout: the request's deadline expired while it waited for
	// a worker; retryable.
	CodeQueueTimeout = "queue_timeout"
	// CodeProbeTimeout: the probe exceeded the per-request budget and no
	// degraded answer was available; retryable.
	CodeProbeTimeout = "probe_timeout"
	// CodeProbeFailed: the probe failed for a non-deadline reason;
	// not retryable (the same probe will fail again).
	CodeProbeFailed = "probe_failed"
	// CodeBreakerOpen: the probe circuit breaker is open and no degraded
	// answer was available; back off and retry after the cooldown.
	CodeBreakerOpen = "breaker_open"
	// CodeInternal: the server failed to build its own response.
	CodeInternal = "internal"
	// CodeNoShards: the fleet router (smtrouter) exhausted every replica
	// shard for the request's key — shards down, unreachable or all
	// shedding; back off and retry after the shard cooldown.
	CodeNoShards = "no_healthy_shards"
)

// Error is the single envelope every non-2xx response body carries. It
// doubles as the Go error type the client returns for server-reported
// failures.
type Error struct {
	// Message is the human-readable description.
	Message string `json:"error"`
	// Code is the machine-readable error class (the Code* constants).
	Code string `json:"code"`

	// Status is the HTTP status the envelope arrived with. It is set by
	// the client, never serialized.
	Status int `json:"-"`
	// RetryAfter is the server's Retry-After hint, when present. Set by
	// the client, never serialized.
	RetryAfter int `json:"-"`
}

// Error satisfies the error interface.
func (e *Error) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("api: %s (code=%s, status=%d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("api: %s (code=%s)", e.Message, e.Code)
}

// Retryable reports whether the error class can succeed on a later
// attempt without changing the request.
func (e *Error) Retryable() bool {
	switch e.Code {
	case CodeRateLimited, CodeQueueTimeout, CodeProbeTimeout, CodeBreakerOpen, CodeNoShards:
		return true
	}
	// Codes this client version does not know (a newer server) are judged
	// by their status class: 429 and most 5xx are transient.
	switch e.Status {
	case 429, 502, 503, 504:
		return true
	}
	return false
}
