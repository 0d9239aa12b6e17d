package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/api"
	"repro/internal/workload"
)

// request is one HTTP call of a workload: the endpoint and its JSON body.
type request struct {
	path string
	body []byte
}

// source yields the i-th request of a workload. It is a pure function of
// the workload seed and i, so a run is reproducible whatever the number of
// requests the time budget lets it send.
type source func(i int) request

// Every request is built from the repo's workload library (workload.All),
// the specs that model the paper's benchmarks.
const (
	// probeScale shortens the library specs that analyze-cold sends as
	// custom specs: TotalWork, IterLen, CritLen and SleepCycles are divided
	// by it, so each thread still runs the library's iteration count with
	// the same lock, barrier and sleep cadence, over a sixteenth of the
	// instructions. A full-size library probe takes 0.5-4 s; at this scale
	// one takes 40-290 ms, in proportion, so fixed per-probe costs keep
	// their full-size share.
	probeScale = 16
	// placeRepeat: every placeRepeat-th placement repeats the one
	// placeRepeat-1 before it with its workloads listed in reverse order.
	// The repeat means the same thing in other bytes, so the fleet answers
	// it from its cache only where router and shard key placements by
	// their canonical form. One in four is a choice, not a measured hit
	// rate; it keeps p50 and p90 among the co-simulated answers.
	placeRepeat = 4
	// placeThreads is the thread count of every placement workload, as in
	// the README's /v1/place example.
	placeThreads = 2
)

func rng(seed uint64, stream, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)<<32|uint64(i)))
}

// libraryOrder is a seeded permutation of the workload library. Requests
// walk it in order, so every run of a few dozen requests or more covers
// the whole library and runs with different seeds cost alike.
func libraryOrder(seed uint64, stream int) []*workload.Spec {
	lib := workload.All()
	out := make([]*workload.Spec, len(lib))
	for k, j := range rng(seed, stream, 1<<32-1).Perm(len(lib)) {
		out[k] = lib[j]
	}
	return out
}

// scaled returns a copy of s shortened by probeScale.
func scaled(s *workload.Spec) *workload.Spec {
	c := *s
	c.TotalWork /= probeScale
	c.IterLen = max(1, c.IterLen/probeScale)
	if c.LockEvery > 0 {
		c.CritLen = max(1, c.CritLen/probeScale)
	}
	c.SleepCycles /= probeScale
	return &c
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// requestSeed draws the i-th request's workload seed. The server keys its
// cache on the seed, so requests that repeat a library spec stay distinct.
func requestSeed(seed uint64, stream, i int) uint64 {
	return rng(seed, stream, i).Uint64() >> 11
}

// analyzeReq is a custom-spec /v1/analyze request for the i-th library
// spec of order, shortened by probeScale.
func analyzeReq(order []*workload.Spec, seed uint64, stream, i int) request {
	spec := scaled(order[i%len(order)])
	return request{api.PathAnalyze, mustJSON(api.AnalyzeRequest{Spec: spec, Seed: requestSeed(seed, stream, i)})}
}

// placeReq is the i-th /v1/place request: a new mix, or every
// placeRepeat-th request the mix of request i-placeRepeat+1 with its
// workloads in reverse order.
func placeReq(order []*workload.Spec, seed uint64, stream, i int) request {
	// Mixes are numbered without the repeats, so the library walk skips
	// no spec.
	j := i/placeRepeat*(placeRepeat-1) + i%placeRepeat
	if i%placeRepeat < placeRepeat-1 {
		return request{api.PathPlace, mustJSON(placeMix(order, seed, stream, j))}
	}
	req := placeMix(order, seed, stream, j-(placeRepeat-1))
	slices.Reverse(req.Workloads)
	return request{api.PathPlace, mustJSON(req)}
}

// placeMix is the j-th new mix, shaped like the README's /v1/place
// example: two library benchmarks named by `bench`, two threads each, and
// an anti-affinity rule that keeps the first workload's threads apart,
// which leaves two pairs to co-simulate, the second workload's twice. Mix
// j pairs order[2j] with an odd-position spec that shifts every pass over
// the library, so each pass places every spec once and successive passes
// form new pairs; every other pass swaps which of the two comes first, so
// each spec is simulated as often as any other over two passes.
func placeMix(order []*workload.Spec, seed uint64, stream, j int) api.PlaceRequest {
	n := len(order)
	pass := j / (n / 2)
	a, b := order[2*j%n].Name, order[(2*j+1+2*pass)%n].Name
	if pass%2 == 1 {
		a, b = b, a
	}
	return api.PlaceRequest{
		Seed: requestSeed(seed, stream, j),
		Workloads: []api.PlaceWorkload{
			{Name: a, Bench: a, Threads: placeThreads},
			{Name: b, Bench: b, Threads: placeThreads},
		},
		AntiAffinity: []api.AffinityRule{{A: a, B: a}},
	}
}

// Stream numbers keep the measured requests and the warm-up requests
// apart, so a warm-up never pre-fills a measured request's cache entry.
const (
	streamMeasured = 1
	streamWarmup   = 2
)

// workloadSpec yields the requests of each phase of one benchmark workload.
type workloadSpec struct {
	measured, warmup source
}

// makeWorkload builds the named workload's inputs from seed.
func makeWorkload(name string, seed uint64) (*workloadSpec, error) {
	var mk func([]*workload.Spec, uint64, int, int) request
	switch name {
	case "analyze-cold":
		mk = analyzeReq
	case "place-mix":
		mk = placeReq
	default:
		return nil, fmt.Errorf("unknown workload %q (want analyze-cold or place-mix)", name)
	}
	phase := func(stream int) source {
		order := libraryOrder(seed, stream)
		return func(i int) request { return mk(order, seed, stream, i) }
	}
	return &workloadSpec{measured: phase(streamMeasured), warmup: phase(streamWarmup)}, nil
}
