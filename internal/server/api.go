package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/httpx"
	"repro/internal/smtsm"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The wire types live in the public api package — the versioned contract
// both this server and the repro/client package compile against. The
// aliases keep the server's internal code and tests reading naturally.
type (
	// MetricRequest is api.MetricRequest.
	MetricRequest = api.MetricRequest
	// AnalyzeRequest is api.AnalyzeRequest.
	AnalyzeRequest = api.AnalyzeRequest
	// Term is api.Term.
	Term = api.Term
	// Recommendation is api.Recommendation.
	Recommendation = api.Recommendation
)

// reqArch resolves the request architecture, falling back to the server
// default.
func (s *Server) reqArch(name string) (*arch.Desc, error) {
	if name == "" {
		return s.defaultArch, nil
	}
	return resolveArch(name)
}

// reqThreshold validates a per-request threshold override.
func (s *Server) reqThreshold(v float64) (float64, error) {
	if v == 0 {
		return s.cfg.Threshold, nil
	}
	if !(v > 0) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("threshold %v: need a positive finite value", v)
	}
	return v, nil
}

// decide fills the decision fields of a recommendation from a breakdown.
func decide(d *arch.Desc, measuredLevel int, m smtsm.Breakdown, th float64) Recommendation {
	rec := Recommendation{
		Arch:             d.Name,
		MeasuredLevel:    measuredLevel,
		RecommendedLevel: measuredLevel,
		Threshold:        th,
		Metric:           m.Value,
		MixDeviation:     m.MixDeviation,
		DispHeld:         m.DispHeld,
		Scalability:      m.Scalability,
	}
	for _, t := range m.Terms {
		rec.Terms = append(rec.Terms, Term{Name: t.Name, Observed: t.Observed, Ideal: t.Ideal})
	}
	if m.Value > th {
		rec.LowerSMT = true
		// Step to the next exposed level below the measured one (stay put
		// when none exists, e.g. a snapshot already at SMT1).
		best := measuredLevel
		for _, l := range d.SMTLevels {
			if l < measuredLevel && (best == measuredLevel || l > best) {
				best = l
			}
		}
		rec.RecommendedLevel = best
	}
	return rec
}

// handleMetric serves POST /v1/metric.
func (s *Server) handleMetric(w http.ResponseWriter, r *http.Request) {
	var req MetricRequest
	if err := httpx.DecodeJSON(r, &req); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad metric request: %v", err)
		return
	}
	d, err := s.reqArch(req.Arch)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	th, err := s.reqThreshold(req.Threshold)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	key := fmt.Sprintf("metric|%s|%016x|%016x", d.Name, math.Float64bits(th), req.Snapshot.Fingerprint())
	s.metricEP.serve(w, r, key, func(context.Context) (Recommendation, error) {
		measured := req.Snapshot.SMTLevel
		if measured == 0 {
			measured = d.MaxSMT
		}
		rec := decide(d, measured, smtsm.Compute(d, &req.Snapshot), th)
		rec.Fingerprint = fmt.Sprintf("%016x", req.Snapshot.Fingerprint())
		if measured != d.MaxSMT {
			rec.Warning = fmt.Sprintf("snapshot measured at SMT%d: the metric is only reliable at the maximum level SMT%d", measured, d.MaxSMT)
		}
		return rec, nil
	})
}

// handleAnalyze serves POST /v1/analyze. The probe path degrades
// gracefully: a stale cached recommendation (or, failing that, the partial
// probe result) answers the request — marked degraded — when the probe is
// cut off by the circuit breaker, saturation or the request deadline.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := httpx.DecodeJSON(r, &req); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad analyze request: %v", err)
		return
	}
	d, err := s.reqArch(req.Arch)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	th, err := s.reqThreshold(req.Threshold)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	chips := req.Chips
	if chips == 0 {
		chips = s.cfg.Chips
	}
	if chips < 1 {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "chips %d: need >= 1", req.Chips)
		return
	}
	if chips > api.MaxChips {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "chips %d: exceeds the limit of %d", chips, api.MaxChips)
		return
	}
	var spec *workload.Spec
	switch {
	case req.Bench != "" && req.Spec != nil:
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "set either bench or spec, not both")
		return
	case req.Bench != "":
		spec, err = workload.Get(req.Bench)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "unknown bench %q (known: %s)",
				req.Bench, strings.Join(workload.Names(), ", "))
			return
		}
	case req.Spec != nil:
		spec = req.Spec // UnmarshalJSON already validated it
	default:
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "one of bench or spec is required")
		return
	}

	specJSON, err := json.Marshal(spec)
	if err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "canonicalising spec: %v", err)
		return
	}
	key := fmt.Sprintf("analyze|%s|%d|%d|%016x|%016x",
		d.Name, chips, req.Seed, math.Float64bits(th), xrand.HashBytes(specJSON))
	s.analyzeEP.serve(w, r, key, func(ctx context.Context) (Recommendation, error) {
		res, err := s.runProbe(ctx, d, chips, spec, req.Seed)
		if err != nil && res.Snapshot.Retired == 0 {
			return Recommendation{}, err // nothing to build a partial answer from
		}
		// A probe cut short still carries the interval data it completed
		// (cpu.RunContext semantics): render it, so the degradation ladder
		// can answer from it rather than discard the work.
		rec := decide(d, d.MaxSMT, res.Metric, th)
		rec.WallCycles = res.WallCycles
		rec.Bench = spec.Name
		rec.Fingerprint = fmt.Sprintf("%016x", res.Snapshot.Fingerprint())
		return rec, err
	})
}

// runProbe is the analyze computation's probe step: the coalesce window,
// then the probe itself. The caller holds a worker slot and has passed the
// breaker gate.
func (s *Server) runProbe(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
	if win := s.cfg.CoalesceWindow; win > 0 {
		// Batch admission: hold the probe back so the rest of a burst can
		// still join this flight instead of racing it to completion. An
		// expiring context just falls through — the probe fails fast and
		// the outcome takes the normal aborted-probe path.
		t := time.NewTimer(win)
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
	s.met.probes.Add(1)
	return s.probe(ctx, d, chips, spec, seed)
}
