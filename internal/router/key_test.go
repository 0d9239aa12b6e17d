package router

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/api"
)

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
