package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/internal/placement"
)

// FuzzEndpoints sends an arbitrary body to one of the three POST endpoints
// (endpoint mod 3: metric, analyze, place) through the full Handler.
// Instant stubs stand in for the probe and the placement engine, so
// decoding, validation, placement.Resolve, canonicalisation and the shared
// pipeline all run for real. No input may panic, and every answer is
// either a 200 with a JSON body or a 400 carrying the bare api.Error
// envelope. The seed corpus lives in testdata/fuzz/FuzzEndpoints.
func FuzzEndpoints(f *testing.F) {
	paths := []string{"/v1/metric", "/v1/analyze", "/v1/place"}
	s, err := New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	var calls atomic.Int64
	s.probe = countingProbe(&calls)
	s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
		fp, err := in.Fingerprint()
		if err != nil {
			return api.PlaceResponse{}, err
		}
		return api.PlaceResponse{Arch: in.Desc.Name, Chips: in.Chips, Fingerprint: fp}, nil
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if w.Code == http.StatusOK {
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("%s: 200 with a body that is not JSON: %q", path, w.Body.Bytes())
			}
			return
		}
		checkEnvelope(t, w.Code, w.Header(), w.Body.Bytes(), http.StatusBadRequest, api.CodeBadRequest, false)
	})
}
