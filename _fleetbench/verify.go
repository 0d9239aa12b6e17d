package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/api"
	"repro/internal/server"
)

// referee is an in-process smtservd configured like the fleet's shards.
// The advisor's contract is that one shard and a routed fleet answer the
// same request with the same bytes, so a fleet response is correct when
// it equals the referee's fresh answer or, for a cache hit, its cached one.
type referee struct {
	h    http.Handler
	want map[string][2][]byte // request key -> {fresh, cached} bodies
}

func newReferee() (*referee, error) {
	s, err := server.New(server.Config{
		Arch: "power7", Chips: 1, Threshold: 0.21,
		Workers: 2, QueueDepth: 16, RequestTimeout: 60 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	return &referee{h: s.Handler(), want: map[string][2][]byte{}}, nil
}

func (r *referee) serve(rq request) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// check compares a fleet response body with the referee's answer to the
// same request, computing that answer on first use.
func (r *referee) check(rq request, got []byte) error {
	key := rq.path + "\x00" + string(rq.body)
	want, ok := r.want[key]
	if !ok {
		status, fresh := r.serve(rq)
		if status != http.StatusOK {
			return fmt.Errorf("referee answered %s with %d: %s", rq.path, status, fresh)
		}
		_, cached := r.serve(rq)
		want = [2][]byte{fresh, cached}
		r.want[key] = want
	}
	// A place-mix repeat lists its workloads in another order. The router
	// hashes the request as sent, so it may send the repeat to another
	// shard than the first asking, which answers it fresh where the
	// referee, one shard, answers from its cache: the answers then differ
	// only in the cached flag.
	fresh := bytes.Replace(want[1], []byte(`"cached":true`), []byte(`"cached":false`), 1)
	if bytes.Equal(got, want[0]) || bytes.Equal(got, want[1]) || bytes.Equal(got, fresh) {
		return nil
	}
	return fmt.Errorf("%s response differs from a single shard's:\n fleet:   %s\n referee: %s", rq.path, got, want[0])
}

// validate checks one fleet response on its own: a 200 carrying a
// well-formed, non-degraded answer consistent with its request.
func validate(rq request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", rq.path, status, bytes.TrimSpace(body))
	}
	switch rq.path {
	case api.PathAnalyze, api.PathMetric:
		var rec api.Recommendation
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("%s: %w", rq.path, err)
		}
		if rec.Degraded || rec.Fingerprint == "" || rec.LowerSMT != (rec.Metric > rec.Threshold) {
			return fmt.Errorf("%s: inconsistent recommendation %s", rq.path, body)
		}
		if rq.path == api.PathAnalyze && rec.WallCycles <= 0 {
			return fmt.Errorf("%s: no simulated cycles in %s", rq.path, body)
		}
	case api.PathPlace:
		var req api.PlaceRequest
		if err := json.Unmarshal(rq.body, &req); err != nil {
			return err
		}
		var resp api.PlaceResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", rq.path, err)
		}
		if err := checkPlacement(req, resp); err != nil {
			return fmt.Errorf("%s: %v in %s", rq.path, err, body)
		}
	}
	return nil
}

// checkPlacement verifies that every requested thread is placed exactly
// once, no core exceeds the per-core cap, and no anti-affine pair shares
// a core.
func checkPlacement(req api.PlaceRequest, resp api.PlaceResponse) error {
	if resp.Degraded {
		return fmt.Errorf("degraded placement")
	}
	placed := map[string]int{}
	for _, a := range resp.Assignments {
		if len(a.Threads) > resp.MaxPerCore {
			return fmt.Errorf("core %d/%d holds %d threads, cap %d", a.Chip, a.Core, len(a.Threads), resp.MaxPerCore)
		}
		on := map[string]int{}
		for _, t := range a.Threads {
			placed[t]++
			on[t]++
		}
		for _, rule := range req.AntiAffinity {
			if (rule.A == rule.B && on[rule.A] > 1) || (rule.A != rule.B && on[rule.A] > 0 && on[rule.B] > 0) {
				return fmt.Errorf("anti-affine %s/%s share core %d/%d", rule.A, rule.B, a.Chip, a.Core)
			}
		}
	}
	for _, w := range req.Workloads {
		want := w.Threads
		if want == 0 {
			want = 1
		}
		if placed[w.Name] != want {
			return fmt.Errorf("workload %s: %d threads placed, want %d", w.Name, placed[w.Name], want)
		}
	}
	return nil
}
