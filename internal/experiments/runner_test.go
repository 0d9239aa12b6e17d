package experiments

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/golden"
)

// detBenches is the cheap-but-diverse subset the runner tests sweep: two of
// the fastest-simulating workloads keep each test seconds, not minutes,
// even under the race detector.
var detBenches = []string{"MG", "Swim"}

// sweepArtifact fills a fresh matrix through the runner and returns the
// canonical JSON of every completed cell — the determinism witness.
func sweepArtifact(t *testing.T, workers int) []byte {
	t.Helper()
	m := NewMatrix(P7OneChip, DefaultSeed)
	r := &Runner{Workers: workers}
	stats, err := r.Sweep(context.Background(), m, detBenches, []int{1, 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if stats.Failed > 0 {
		t.Fatalf("sweep: %d failed cells", stats.Failed)
	}
	b, err := golden.Marshal(m.Cached())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepDeterministicAcrossGOMAXPROCS is the engine's core guarantee:
// the artifacts of a sweep are bit-identical whether the scheduler has one
// P or eight, and whatever the goroutine interleaving.
func TestSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	serial := sweepArtifact(t, 8)
	runtime.GOMAXPROCS(8)
	parallel := sweepArtifact(t, 8)
	runtime.GOMAXPROCS(old)

	if !bytes.Equal(serial, parallel) {
		t.Fatalf("sweep artifacts differ between GOMAXPROCS=1 and GOMAXPROCS=8:\n%s",
			golden.Diff(serial, parallel))
	}
	// A single-worker fill must match too (worker count, like GOMAXPROCS,
	// may only change wall-clock time).
	oneWorker := sweepArtifact(t, 1)
	if !bytes.Equal(serial, oneWorker) {
		t.Fatalf("sweep artifacts differ between 1 and 8 workers:\n%s",
			golden.Diff(serial, oneWorker))
	}
}

// TestSweepErrorIsolation: one failing benchmark must not poison the rest
// of the matrix.
func TestSweepErrorIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	m := NewMatrix(P7OneChip, DefaultSeed)
	r := &Runner{Workers: 4}
	benches := []string{"MG", "NoSuchBenchmark", "Swim"}
	var events []Event
	r.OnEvent = func(ev Event) { events = append(events, ev) }
	stats, err := r.Sweep(context.Background(), m, benches, []int{1})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if stats.Cells != 3 || stats.Failed != 1 || stats.Skipped != 0 {
		t.Fatalf("stats = %+v, want 3 cells / 1 failed / 0 skipped", stats)
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	// OnEvent calls are serialized with the Seq count, so they arrive in
	// Seq order.
	for i, ev := range events {
		if ev.Seq != i+1 || ev.Total != 3 {
			t.Errorf("event %d %+v: want Seq %d, Total 3", i, ev, i+1)
		}
	}
	if c := m.Cell(context.Background(), "NoSuchBenchmark", 1); c.Err == nil {
		t.Error("unknown benchmark did not record an error")
	}
	for _, b := range []string{"MG", "Swim"} {
		if c := m.Cell(context.Background(), b, 1); c.Err != nil || c.Wall <= 0 {
			t.Errorf("%s poisoned by sibling failure: %+v", b, c)
		}
	}
}

// TestSweepCancellation: canceling mid-sweep stops dispatch, interrupts
// in-flight cells, keeps completed cells as partial results, and leaves
// interrupted cells uncached so they can be retried.
func TestSweepCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	m := NewMatrix(P7OneChip, DefaultSeed)
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Workers: 1}
	// Cancel as soon as the first cell completes: the remaining cells are
	// either interrupted mid-run or never dispatched.
	r.OnEvent = func(ev Event) {
		if ev.Seq == 1 {
			cancel()
		}
	}
	benches := []string{"MG", "Swim", "Equake", "Stream"}
	stats, err := r.Sweep(ctx, m, benches, []int{1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep returned %v, want context.Canceled", err)
	}
	if stats.Cells < 1 {
		t.Fatalf("stats = %+v: first cell should have completed", stats)
	}
	if stats.Cells+stats.Skipped != len(benches) {
		t.Fatalf("stats = %+v: cells+skipped != %d", stats, len(benches))
	}
	// With one worker and cancellation fired from the first completion,
	// exactly the first cell survives as a cached partial result: every
	// later cell either never dispatched or saw a dead context and was
	// deliberately left uncached.
	done := m.Cached()
	if len(done) != 1 {
		t.Fatalf("%d cells cached after cancellation, want 1", len(done))
	}
	if done[0].Err != nil {
		t.Errorf("cached cell %s@%d carries error %v", done[0].Bench, done[0].SMT, done[0].Err)
	}
	// Interrupted/skipped cells retry cleanly with a live context.
	for _, b := range benches {
		if c := m.Cell(context.Background(), b, 1); c.Err != nil || c.Wall <= 0 {
			t.Errorf("%s@1 did not recover after cancellation: %+v", b, c)
		}
	}
}

// TestSweepCellTimeout: a per-cell budget too small for any real run fails
// the cell with DeadlineExceeded, without caching it.
func TestSweepCellTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	m := NewMatrix(P7OneChip, DefaultSeed)
	m.CellBudget = time.Millisecond
	r := &Runner{Workers: 1}
	var timedOut error
	r.OnEvent = func(ev Event) { timedOut = ev.Err }
	stats, err := r.Sweep(context.Background(), m, []string{"MG"}, []int{1})
	if err != nil {
		t.Fatalf("sweep: %v (per-cell timeouts must not abort the sweep)", err)
	}
	if stats.Failed != 1 {
		t.Fatalf("stats = %+v, want the cell to fail its 1ms budget", stats)
	}
	if !errors.Is(timedOut, context.DeadlineExceeded) {
		t.Fatalf("cell error %v, want DeadlineExceeded", timedOut)
	}
	if got := len(m.Cached()); got != 0 {
		t.Fatalf("%d timed-out cells were cached", got)
	}
	// With no budget the same cell completes and caches.
	m.CellBudget = 0
	if c := m.Cell(context.Background(), "MG", 1); c.Err != nil || c.Wall <= 0 {
		t.Fatalf("MG@1 did not recover after timeout: %+v", c)
	}
}

// TestSweepSharesInFlightCells: concurrent requests for the same cell must
// not duplicate the simulation (singleflight).
func TestSweepSharesInFlightCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	m := NewMatrix(P7OneChip, DefaultSeed)
	results := make(chan *Cell, 8)
	for i := 0; i < 8; i++ {
		go func() { results <- m.Cell(context.Background(), "MG", 1) }()
	}
	first := <-results
	for i := 1; i < 8; i++ {
		if c := <-results; c != first {
			t.Fatal("concurrent Cell calls returned distinct result objects")
		}
	}
}

// TestCellContext pins the render-path contract behind cmd/experiments'
// Ctrl-C handling: once the caller's context is canceled, Matrix.Cell must
// report missing cells as failed instead of launching new simulations, while
// already-computed cells stay readable.
func TestCellContext(t *testing.T) {
	m := NewMatrix(P7OneChip, DefaultSeed)
	ctx, cancel := context.WithCancel(context.Background())

	if c := m.Cell(ctx, "MG", 1); c.Err != nil {
		t.Fatalf("live context: Cell failed: %v", c.Err)
	}
	cancel()
	start := time.Now()
	if c := m.Cell(ctx, "Swim", 1); !errors.Is(c.Err, context.Canceled) {
		t.Fatalf("canceled context: Err = %v, want context.Canceled", c.Err)
	} else if d := time.Since(start); d > time.Second {
		t.Fatalf("canceled Cell took %v, want immediate return", d)
	}
	if c := m.Cell(ctx, "MG", 1); c.Err != nil {
		t.Fatalf("cached cell must survive cancellation, got Err %v", c.Err)
	}

	// A per-cell budget on the render path behaves like the pool's: the
	// cell fails with DeadlineExceeded and is not cached.
	m2 := NewMatrix(P7OneChip, DefaultSeed)
	m2.CellBudget = time.Millisecond
	if c := m2.Cell(context.Background(), "MG", 1); !errors.Is(c.Err, context.DeadlineExceeded) {
		t.Fatalf("1ms budget: Err = %v, want context.DeadlineExceeded", c.Err)
	}
	if got := len(m2.Cached()); got != 0 {
		t.Fatalf("timed-out render cell must not be cached, got %d cells", got)
	}
}
