package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/placement"
	"repro/internal/smtsm"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The traced replay re-runs a sample of a workload's requests in process,
// along the path the fleet took for them, with a span around each call
// into a layer. Every request is decoded and keyed, and its answer
// encoded. A request the fleet answered from its cache is replayed as a
// cache hit on the referee; an analyze miss is compiled, simulated and
// scored; a placement miss runs the placement engine. The replay runs
// after the measured window, so tracing never slows the fleet numbers, and
// each replayed answer must equal the fleet's.

// span is one timed call. Spans of one replayed request share Trace; a
// child names its caller in Parent (0 for the request's root span).
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds() }

// selfTimes returns, per trace and span name, the summed self time in
// nanoseconds: each span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[int]map[string]int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent > 0 {
			self[s.Parent-1] -= s.EndNS - s.StartNS
		}
	}
	out := map[int]map[string]int64{}
	for i, s := range t.spans {
		if out[s.Trace] == nil {
			out[s.Trace] = map[string]int64{}
		}
		out[s.Trace][s.Name] += self[i]
	}
	return out
}

// replayer holds the layers' long-lived state, as a shard would: a
// machine pool, so simulate times exclude machine construction, and the
// referee, whose cache answers the replayed cache hits.
type replayer struct {
	d    *arch.Desc
	pool *cpu.Pool
	ref  *referee
	tr   tracer
	// simCycles is the simulated cycles the simulate spans covered.
	simCycles int64
	// keySum folds the computed cache keys so computing them is not dead
	// code.
	keySum uint64
}

func newReplayer(ref *referee) *replayer {
	return &replayer{d: arch.POWER7(), pool: cpu.NewPool(0), ref: ref, tr: tracer{t0: time.Now()}}
}

// replay re-runs one request under trace id along the fleet's path (a
// cache hit when hit is set) and reports whether its answer equals the
// fleet's response body.
func (rp *replayer) replay(ctx context.Context, id int, rq request, fleetBody []byte, hit bool) (bool, error) {
	root := rp.tr.begin(id, 0, "request")
	defer rp.tr.end(root)
	switch rq.path {
	case api.PathAnalyze:
		req, err := rp.analyzeKey(id, root, rq)
		if err != nil {
			return false, err
		}
		if hit {
			return rp.hit(id, root, rq, fleetBody, &api.Recommendation{})
		}
		return rp.analyze(ctx, id, root, req, fleetBody)
	case api.PathPlace:
		in, err := rp.placeKey(id, root, rq)
		if err != nil {
			return false, err
		}
		if hit {
			return rp.hit(id, root, rq, fleetBody, &api.PlaceResponse{})
		}
		return rp.place(ctx, id, root, in, fleetBody)
	}
	return false, fmt.Errorf("replay: unknown path %s", rq.path)
}

// step runs fn inside a span named name.
func (rp *replayer) step(id, parent int, name string, fn func() error) error {
	sp := rp.tr.begin(id, parent, name)
	err := fn()
	rp.tr.end(sp)
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	return nil
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encode times the response encoding of v.
func (rp *replayer) encode(id, root int, v any) ([]byte, error) {
	var b []byte
	err := rp.step(id, root, "encode", func() (err error) {
		b, err = json.Marshal(v)
		return err
	})
	return b, err
}

// analyzeKey decodes an analyze request and computes its cache key: the
// library spec a bench name resolves to, its canonical JSON and hash.
func (rp *replayer) analyzeKey(id, root int, rq request) (api.AnalyzeRequest, error) {
	var req api.AnalyzeRequest
	if err := rp.step(id, root, "decode", func() error { return decodeStrict(rq.body, &req) }); err != nil {
		return req, err
	}
	err := rp.step(id, root, "canonical", func() error {
		if req.Bench != "" {
			s, err := workload.Get(req.Bench)
			if err != nil {
				return err
			}
			req.Spec = s
		}
		specJSON, err := json.Marshal(req.Spec)
		key := fmt.Sprintf("analyze|%s|%d|%016x", rp.d.Name, req.Seed, xrand.HashBytes(specJSON))
		rp.keySum ^= xrand.HashString(key)
		return err
	})
	return req, err
}

// placeKey decodes a placement request, resolves it and hashes its
// canonical form, as the server and the router key it.
func (rp *replayer) placeKey(id, root int, rq request) (*placement.Input, error) {
	var req api.PlaceRequest
	if err := rp.step(id, root, "decode", func() error { return decodeStrict(rq.body, &req) }); err != nil {
		return nil, err
	}
	var in *placement.Input
	err := rp.step(id, root, "canonical", func() error {
		var err error
		if in, err = placement.Resolve(rp.d, 1, req); err != nil {
			return err
		}
		c, err := in.Canonical()
		rp.keySum ^= xrand.HashBytes(c)
		return err
	})
	return in, err
}

// hit times the shard's cache-hit path, one in-process handler call on the
// referee after an untimed call has filled its cache, and encodes the
// fleet's answer, decoded into v.
func (rp *replayer) hit(id, root int, rq request, fleetBody []byte, v any) (bool, error) {
	status, body := rp.ref.serve(rq)
	if status != http.StatusOK {
		return false, fmt.Errorf("replay: referee answered %s with %d: %s", rq.path, status, body)
	}
	_ = rp.step(id, root, "cache_hit", func() error { status, body = rp.ref.serve(rq); return nil })
	if err := json.Unmarshal(fleetBody, v); err != nil {
		return false, fmt.Errorf("replay: fleet body: %w", err)
	}
	if _, err := rp.encode(id, root, v); err != nil {
		return false, err
	}
	return status == http.StatusOK && bytes.Equal(body, fleetBody), nil
}

// analyze replays an analyze probe: compile the spec for every hardware
// thread of the machine, simulate to completion, score the counters.
func (rp *replayer) analyze(ctx context.Context, id, root int, req api.AnalyzeRequest, fleetBody []byte) (bool, error) {
	m, err := rp.pool.Get(rp.d, 1)
	if err != nil {
		return false, err
	}
	defer rp.pool.Put(m)
	var prog *workload.Program
	if err := rp.step(id, root, "compile", func() (err error) {
		prog, err = workload.Compile(req.Spec, m.HardwareThreads(), req.Seed)
		return err
	}); err != nil {
		return false, err
	}
	var wall int64
	var snap counters.Snapshot
	if err := rp.step(id, root, "simulate", func() (err error) {
		wall, err = m.RunContext(ctx, prog.Instantiate().Sources(), 0)
		snap = m.Counters()
		return err
	}); err != nil {
		return false, err
	}
	rp.simCycles += wall
	var b smtsm.Breakdown
	_ = rp.step(id, root, "score", func() error { b = smtsm.Compute(rp.d, &snap); return nil })
	var rec api.Recommendation
	if err := json.Unmarshal(fleetBody, &rec); err != nil {
		return false, fmt.Errorf("replay: fleet body: %w", err)
	}
	if _, err := rp.encode(id, root, &rec); err != nil {
		return false, err
	}
	return rec.Metric == b.Value && rec.WallCycles == wall && rec.Fingerprint == fmt.Sprintf("%016x", snap.Fingerprint()), nil
}

// place replays a placement as one span around the placement engine (pair
// co-simulation, scoring and the solver) and compares the whole response.
func (rp *replayer) place(ctx context.Context, id, root int, in *placement.Input, fleetBody []byte) (bool, error) {
	var resp api.PlaceResponse
	if err := rp.step(id, root, "place", func() (err error) {
		resp, err = (&placement.Engine{Pool: rp.pool}).Place(ctx, in)
		return err
	}); err != nil {
		return false, err
	}
	got, err := rp.encode(id, root, resp)
	if err != nil {
		return false, err
	}
	var fleet api.PlaceResponse
	if err := json.Unmarshal(fleetBody, &fleet); err != nil {
		return false, fmt.Errorf("replay: fleet body: %w", err)
	}
	want, err := json.Marshal(fleet)
	return bytes.Equal(got, want), err
}

// layerMetrics turns the spans into per-layer figures: for each layer the
// median, over the replayed requests that reach it, of the request's self
// time in that layer. A layer no replayed request reaches reads 0: an
// analyze-cold run serves no cache hit and places nothing, a place-mix run
// runs no analyze probe.
func (rp *replayer) layerMetrics() map[string]float64 {
	layers := []struct {
		span, metric string
		unit         float64 // nanoseconds per reported unit
	}{
		{"decode", "decode_us", 1e3}, {"canonical", "canonical_us", 1e3}, {"cache_hit", "cache_hit_us", 1e3},
		{"compile", "compile_us", 1e3}, {"simulate", "simulate_ms", 1e6}, {"score", "score_us", 1e3},
		{"place", "place_ms", 1e6}, {"encode", "encode_us", 1e3},
	}
	self := rp.tr.selfTimes()
	out := map[string]float64{}
	var simNS int64
	for _, l := range layers {
		var v []float64
		for _, byName := range self {
			if ns, ok := byName[l.span]; ok {
				v = append(v, float64(ns)/l.unit)
				if l.span == "simulate" {
					simNS += ns
				}
			}
		}
		out[l.metric] = median(v)
	}
	out["sim_mcycles_per_s"] = 0
	if simNS > 0 {
		out["sim_mcycles_per_s"] = float64(rp.simCycles) / 1e6 / (float64(simNS) / 1e9)
	}
	return out
}

// writeSpans saves the replay's spans as JSON.
func (rp *replayer) writeSpans(path string) error {
	b, err := json.Marshal(rp.tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
