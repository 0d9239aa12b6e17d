// Command fleetbench is the advisor fleet's benchmark. It starts two
// smtservd shards behind one smtrouter, drives one seeded workload through
// the router with a closed loop of one caller, checks every answer,
// and prints one JSON result line.
//
// Workloads:
//
//	analyze-cold  shortened library specs on /v1/analyze: every request misses the cache and probes
//	place-mix     two-benchmark /v1/place mixes: three in four co-simulate pairs and solve,
//	              the fourth repeats one in other bytes, a cache hit where router and shard agree on its key
//
// With -trace 0 it reports end-to-end latency, throughput and set-up time;
// with -trace 1 it reports per-layer figures: fleet counters from
// /debug/vars over the measured window, and the self times of a traced
// in-process replay of the run's requests (spans saved under -out).
//
// Usage (normally through run.py, which builds the binaries first):
//
//	fleetbench -bin .bench_build/bin -out .bench_build -workload place-mix -seed 1 -seconds 55 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

const (
	// setups is how many times a run starts the fleet; set-up time is
	// their median and the last fleet serves the workload.
	setups = 21
	// warmup is how long the caller runs before the measured window, so
	// connections, pooled machines and caches of shared state are live.
	warmup = time.Second
	// refereeSamples is how many pairs of responses the in-process
	// referee recomputes.
	refereeSamples = 4
	// replayMax bounds how many distinct requests the traced replay
	// re-runs.
	replayMax = 16
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	var (
		name    = flag.String("workload", "", "analyze-cold or place-mix")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 55, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 reports per-layer figures instead of end-to-end ones")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding smtservd and smtrouter")
		outDir  = flag.String("out", ".bench_build", "directory for shard logs and replay spans")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		return errors.New("need -seconds >= 1, -trace 0 or 1, and no positional arguments")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	wl, err := makeWorkload(*name, *seed)
	if err != nil {
		return err
	}
	logDir := filepath.Join(*outDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}

	var setupS []float64
	var f *fleet
	for k := 0; k < setups; k++ {
		var d time.Duration
		if f, d, err = startFleet(ctx, *binDir, logDir); err != nil {
			return err
		}
		setupS = append(setupS, d.Seconds())
		if k < setups-1 {
			f.stop()
		}
	}
	defer f.stop()

	ref, err := newReferee()
	if err != nil {
		return err
	}
	c := &http.Client{Timeout: 120 * time.Second}

	// Warm-up: run briefly on requests the measured window never sends.
	closedLoop(ctx, c, f.router, wl.warmup, warmup)

	before, err := fleetVars(ctx, c, f)
	if err != nil {
		return err
	}
	results, elapsed := closedLoop(ctx, c, f.router, wl.measured, time.Duration(*seconds)*time.Second)
	after, err := fleetVars(ctx, c, f)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	out := output{Correct: true, Attempted: len(results), Metrics: map[string]metric{}}
	fail := func(index int, err error) {
		out.Failed++
		out.Correct = false
		if out.Failed <= 3 {
			fmt.Fprintf(os.Stderr, "fleetbench: request %d: %v\n", index, err)
		}
	}
	// The referee recomputes pairs of requests: i and i+placeRepeat-1,
	// which on place-mix is i's repeat, so a cached answer is compared too.
	stride := max(1, len(results)/refereeSamples/placeRepeat) * placeRepeat
	for _, r := range results {
		err := r.err
		if err == nil {
			i := r.index % stride
			err = validate(wl.measured(r.index), r.status, r.body)
			if err == nil && (i == 0 || i == placeRepeat-1) {
				err = ref.check(wl.measured(r.index), r.body)
			}
		}
		if err != nil {
			fail(r.index, err)
		}
	}

	if *trace == 0 {
		p50, p90, err := latencyStats(results)
		if err != nil {
			return err
		}
		ok := float64(len(results) - out.Failed)
		out.Metrics["latency_p50_ms"] = metric{p50, "ms"}
		out.Metrics["latency_p90_ms"] = metric{p90, "ms"}
		out.Metrics["throughput_rps"] = metric{ok / elapsed.Seconds(), "1/s"}
		out.Metrics["setup_s"] = metric{median(setupS), "s"}
	} else {
		layers, err := fleetLayers(before, after)
		if err != nil {
			return err
		}
		rp := newReplayer(ref)
		seen := map[string]bool{}
		for _, r := range results {
			rq := wl.measured(r.index)
			key := rq.path + string(rq.body)
			if r.err != nil || seen[key] || len(seen) == replayMax {
				continue
			}
			seen[key] = true
			// The fleet's answer says whether it came from the cache.
			var answer struct {
				Cached bool `json:"cached"`
			}
			if err := json.Unmarshal(r.body, &answer); err != nil {
				return fmt.Errorf("request %d: %w", r.index, err)
			}
			agree, err := rp.replay(ctx, len(seen), rq, r.body, answer.Cached)
			if err != nil {
				return err
			}
			if !agree {
				fail(r.index, errors.New("the traced replay's answer differs from the fleet's"))
			}
		}
		spans := filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := rp.writeSpans(spans); err != nil {
			return err
		}
		for k, v := range rp.layerMetrics() {
			layers[k] = v
		}
		for k, v := range layers {
			out.Metrics[k] = metric{v, layerUnits[k]}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerUnits names the unit of every per-layer figure.
var layerUnits = map[string]string{
	"router_hop_ms": "ms", "shard_ms": "ms",
	"decode_us": "us", "canonical_us": "us", "cache_hit_us": "us", "compile_us": "us",
	"simulate_ms": "ms", "score_us": "us", "place_ms": "ms", "encode_us": "us",
	"sim_mcycles_per_s": "Mcycles/s", "cache_hit_ratio": "ratio", "probes_per_request": "ratio",
	"pairs_per_placement": "ratio", "shard_max_share": "ratio",
}

// varsSnap is /debug/vars of the router and of each shard.
type varsSnap struct {
	router map[string]any
	shards []map[string]any
}

func fleetVars(ctx context.Context, c *http.Client, f *fleet) (varsSnap, error) {
	var s varsSnap
	var err error
	if s.router, err = vars(ctx, c, f.router); err != nil {
		return s, err
	}
	for _, u := range f.shards {
		v, err := vars(ctx, c, u)
		if err != nil {
			return s, err
		}
		s.shards = append(s.shards, v)
	}
	return s, nil
}

// fleetLayers derives per-layer figures from the counters the fleet
// exports, as differences across the measured window. Every daemon counts
// the /debug/vars request that took the first snapshot inside the window,
// so one request is taken off each count.
func fleetLayers(before, after varsSnap) (map[string]float64, error) {
	var firstErr error
	delta := func(b, a map[string]any, path string) float64 {
		x, err := num(b, path)
		y, err2 := num(a, path)
		if err == nil {
			err = err2
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return y - x
	}
	var shardN, shardSum, hits, misses, probes, placements, pairs, maxReq float64
	for i := range after.shards {
		b, a := before.shards[i], after.shards[i]
		n := delta(b, a, "latency_seconds.count") - 1
		shardN += n
		shardSum += delta(b, a, "latency_seconds.sum_seconds")
		maxReq = max(maxReq, n)
		hits += delta(b, a, "cache_hits")
		misses += delta(b, a, "cache_misses")
		probes += delta(b, a, "probes_total")
		placements += delta(b, a, "placements_total")
		pairs += delta(b, a, "place_pairs_total")
	}
	routerN := delta(before.router, after.router, "latency_seconds.count") - 1
	routerSum := delta(before.router, after.router, "latency_seconds.sum_seconds")
	if firstErr != nil {
		return nil, firstErr
	}
	if routerN < 1 || shardN < 1 {
		return nil, errors.New("no requests reached the fleet in the measured window")
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	shardMS := shardSum / shardN * 1e3
	return map[string]float64{
		"router_hop_ms":       routerSum/routerN*1e3 - shardMS,
		"shard_ms":            shardMS,
		"cache_hit_ratio":     ratio(hits, hits+misses),
		"probes_per_request":  (probes + placements) / routerN,
		"pairs_per_placement": ratio(pairs, placements),
		"shard_max_share":     maxReq / shardN,
	}, nil
}
