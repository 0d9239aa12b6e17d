package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// result is the outcome of one request.
type result struct {
	index   int
	latency time.Duration
	status  int
	body    []byte
	err     error
}

// send posts one request and reads the whole response.
func send(ctx context.Context, c *http.Client, base string, rq request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// closedLoop sends the requests of src one after another, each as soon as
// the previous one completes, until budget has elapsed; the request under
// way at the deadline runs to completion. One caller keeps each request's
// simulation alone on the host: on two CPUs a second caller widened
// run-to-run spread. It returns the results in
// request order and the wall time from the first send to the last
// completion.
func closedLoop(ctx context.Context, c *http.Client, base string, src source, budget time.Duration) ([]result, time.Duration) {
	var results []result
	start := time.Now()
	for i := 0; time.Since(start) < budget && ctx.Err() == nil; i++ {
		rq := src(i)
		t := time.Now()
		status, body, err := send(ctx, c, base, rq)
		results = append(results, result{index: i, latency: time.Since(t), status: status, body: body, err: err})
	}
	return results, time.Since(start)
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencyStats summarises the successful requests' latencies in
// milliseconds. The tail is p90, the highest percentile a run's smallest
// sample (under a hundred placements) still puts several requests beyond.
func latencyStats(results []result) (p50, p90 float64, err error) {
	var ms []float64
	for _, r := range results {
		if r.err == nil && r.status == http.StatusOK {
			ms = append(ms, float64(r.latency)/float64(time.Millisecond))
		}
	}
	if len(ms) < 50 {
		return 0, 0, fmt.Errorf("only %d successful requests in the measured window, need 50 for a p90", len(ms))
	}
	sort.Float64s(ms)
	return quantile(ms, 0.5), quantile(ms, 0.9), nil
}
