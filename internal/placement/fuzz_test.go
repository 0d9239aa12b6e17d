package placement

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// readmePlaceBody is the /v1/place request of the README.
const readmePlaceBody = `{
  "seed": 7,
  "workloads": [
    {"name": "ep", "bench": "EP", "threads": 2},
    {"name": "cg", "bench": "CG", "threads": 2}
  ],
  "antiAffinity": [{"a": "ep", "b": "ep"}]
}`

// FuzzPlaceCanonical feeds arbitrary bodies, decoded as the server decodes
// a /v1/place request, to Resolve. Whenever one resolves, it must solve
// with zero pair scores (an accepted body the solver cannot handle cheaply
// stalls or exhausts the fuzzer), and its canonical bytes — the server's
// cache and flight key, and the router's shard key — must not move when
// the workloads are permuted, when the anti-affinity rules are reordered,
// flipped or repeated, or when every default is spelled out; and its
// fingerprint must be the hash of those bytes.
func FuzzPlaceCanonical(f *testing.F) {
	for _, req := range []api.PlaceRequest{testRequest(), permutedRequest()} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(readmePlaceBody))
	// Oversized bodies: Resolve must reject them before solve would
	// allocate for a hundred million chips or 2^63 thread units.
	f.Add([]byte(`{"chips":100000000,"workloads":[{"name":"a","bench":"EP"}]}`))
	f.Add([]byte(`{"workloads":[{"name":"a","bench":"EP","threads":4611686018427387904},` +
		`{"name":"b","bench":"EP","threads":4611686018427387904}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req api.PlaceRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		in, err := Resolve(arch.POWER7(), 1, req)
		if err != nil {
			return
		}
		// Whatever Resolve accepts must be cheap to solve: the request
		// limits bound the solver's cores and thread units.
		if _, _, err := solve(in, func(int, int) float64 { return 0 }); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("solve: %v", err)
		}
		want, err := in.Canonical()
		if err != nil {
			t.Fatalf("resolved request failed to canonicalize: %v", err)
		}
		same := func(what string, v api.PlaceRequest) {
			t.Helper()
			vin, err := Resolve(arch.POWER7(), 1, v)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			got, err := vin.Canonical()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s moved the canonical bytes:\n%s\n%s", what, want, got)
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

		// Every default explicit, as the API documents them: one chip,
		// the architecture's SMT width per core, one thread per workload,
		// each bench as its inline spec, and the resolved rules by name.
		full := req
		if full.Chips == 0 {
			full.Chips = 1
		}
		if full.MaxPerCore == 0 {
			full.MaxPerCore = arch.POWER7().MaxSMT
		}
		full.Workloads = nil
		for _, w := range req.Workloads {
			if w.Threads == 0 {
				w.Threads = 1
			}
			if w.Bench != "" {
				spec, err := workload.Get(w.Bench)
				if err != nil {
					t.Fatalf("bench %q resolved but is unknown: %v", w.Bench, err)
				}
				w.Bench, w.Spec = "", spec
			}
			full.Workloads = append(full.Workloads, w)
		}
		full.AntiAffinity = nil
		for _, p := range in.Anti {
			full.AntiAffinity = append(full.AntiAffinity,
				api.AffinityRule{A: in.Workloads[p[0]].Name, B: in.Workloads[p[1]].Name})
		}
		same("spelling out every default", full)

		fp, err := in.Fingerprint()
		if err != nil {
			t.Fatalf("Fingerprint: %v", err)
		}
		if hash := fmt.Sprintf("%016x", xrand.HashBytes(want)); fp != hash {
			t.Fatalf("fingerprint %s, want the canonical hash %s", fp, hash)
		}
	})
}
