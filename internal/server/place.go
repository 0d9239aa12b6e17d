package server

import (
	"context"
	"fmt"
	"net/http"

	"repro/api"
	"repro/internal/httpx"
	"repro/internal/placement"
	"repro/internal/xrand"
)

// POST /v1/place runs the endpoint pipeline (endpoint.go) with the
// placement engine as its computation: canonical-hash cache keying, flight
// coalescing, bounded admission, the probe circuit breaker and the
// degradation ladder (stale cached placement → partial placement, Warning
// 110/199).
// The cache and flight key is the hash of placement.Input.Canonical, so
// two requests that differ only in JSON field order, workload order or
// defaulted fields share one cache entry and one co-simulation flight.

// placeKey derives the cache/flight key from the canonical resolved input.
func placeKey(canonical []byte) string {
	return fmt.Sprintf("place|%016x", xrand.HashBytes(canonical))
}

// handlePlace serves POST /v1/place.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req api.PlaceRequest
	if err := httpx.DecodeJSON(r, &req); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad place request: %v", err)
		return
	}
	d, err := s.reqArch(req.Arch)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	in, err := placement.Resolve(d, s.cfg.Chips, req)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	canonical, err := in.Canonical()
	if err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "canonicalising place request: %v", err)
		return
	}
	s.placeEP.serve(w, r, placeKey(canonical), func(ctx context.Context) (api.PlaceResponse, error) {
		s.met.placements.Add(1)
		resp, err := s.place(ctx, in)
		if err == nil {
			s.met.placePairs.Add(uint64(len(resp.PairScores)))
		}
		return resp, err
	})
}
