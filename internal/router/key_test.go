package router

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/api"
	"repro/internal/httpx"
)

// FuzzAnalyzeRouteKey feeds arbitrary bodies, decoded strictly as the
// router's /v1/analyze handler decodes them, to the analyze shard-key
// derivation. It must never panic, and the key must not move when a
// decoded request is re-encoded and decoded again, so a repeat of a
// request always reaches the same shard. The seed corpus lives in
// testdata/fuzz/FuzzAnalyzeRouteKey.
func FuzzAnalyzeRouteKey(f *testing.F) {
	decode := func(body []byte) (api.AnalyzeRequest, error) {
		var req api.AnalyzeRequest
		err := httpx.DecodeJSON(httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)), &req)
		return req, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decode(data)
		if err != nil {
			return
		}
		key, err := analyzeRouteKey(req)
		if err != nil {
			t.Fatalf("decoded request failed to key: %v", err)
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding a decoded request: %v", err)
		}
		again, err := decode(raw)
		if err != nil {
			t.Fatalf("re-encoded request %s no longer decodes: %v", raw, err)
		}
		got, err := analyzeRouteKey(again)
		if err != nil {
			t.Fatalf("re-decoded request failed to key: %v", err)
		}
		if got != key {
			t.Fatalf("re-encoding %s moved the key: %016x -> %016x", raw, key, got)
		}
	})
}

// FuzzPlaceRouteKey feeds arbitrary JSON, decoded as a placement request,
// to the /v1/place shard-key derivation. It must never panic, and the key
// must not move when the workloads are permuted or the anti-affinity
// rules are reordered, flipped or duplicated — the orderings the shard's
// canonical input ignores. The seed corpus lives in
// testdata/fuzz/FuzzPlaceRouteKey.
func FuzzPlaceRouteKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req api.PlaceRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		key, err := placeRouteKey(req)
		if err != nil {
			t.Fatalf("decoded request failed to key: %v", err)
		}
		same := func(what string, v api.PlaceRequest) {
			t.Helper()
			got, err := placeRouteKey(v)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got != key {
				t.Fatalf("%s moved the key: %016x -> %016x", what, key, got)
			}
		}

		// Workload permutations: reversed, and rotated by one.
		v := req
		v.Workloads = slices.Clone(req.Workloads)
		slices.Reverse(v.Workloads)
		same("reversing the workloads", v)
		if n := len(req.Workloads); n > 1 {
			v.Workloads = append(slices.Clone(req.Workloads[1:]), req.Workloads[0])
			same("rotating the workloads", v)
		}

		// Anti-affinity rules: reordered, every rule flipped, every rule
		// repeated.
		v = req
		v.AntiAffinity = slices.Clone(req.AntiAffinity)
		slices.Reverse(v.AntiAffinity)
		same("reversing the anti rules", v)
		for i, r := range v.AntiAffinity {
			v.AntiAffinity[i] = api.AffinityRule{A: r.B, B: r.A}
		}
		same("flipping the anti rules", v)
		v.AntiAffinity = append(v.AntiAffinity, req.AntiAffinity...)
		same("repeating the anti rules", v)
	})
}
