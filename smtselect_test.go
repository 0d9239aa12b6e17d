package smtselect_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	smtselect "repro"
	"repro/internal/cpu"
)

func TestArchConstructors(t *testing.T) {
	p7 := smtselect.POWER7()
	if p7.Name != "POWER7" || p7.MaxSMT != 4 {
		t.Fatalf("POWER7 desc wrong: %s SMT%d", p7.Name, p7.MaxSMT)
	}
	i7 := smtselect.Nehalem()
	if i7.Name != "Nehalem" || i7.MaxSMT != 2 {
		t.Fatalf("Nehalem desc wrong: %s SMT%d", i7.Name, i7.MaxSMT)
	}
}

func TestMachineConstructors(t *testing.T) {
	m, err := smtselect.NewPOWER7Machine(2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCores() != 16 {
		t.Fatalf("cores %d, want 16", m.NumCores())
	}
	n, err := smtselect.NewNehalemMachine()
	if err != nil {
		t.Fatal(err)
	}
	if n.NumCores() != 4 || n.HardwareThreads() != 8 {
		t.Fatalf("nehalem geometry %d cores / %d threads", n.NumCores(), n.HardwareThreads())
	}
	if _, err := smtselect.NewMachine(smtselect.POWER7(), 0); err == nil {
		t.Fatal("zero chips accepted")
	}
}

func TestWorkloadLookup(t *testing.T) {
	names := smtselect.WorkloadNames()
	if len(names) < 34 {
		t.Fatalf("only %d workloads", len(names))
	}
	if _, err := smtselect.Workload(names[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := smtselect.Workload("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if got := len(smtselect.Workloads()); got != len(names) {
		t.Fatalf("Workloads() returned %d, names %d", got, len(names))
	}
}

func TestDefaultBenchmarkSetsAreCopies(t *testing.T) {
	a := smtselect.DefaultP7Benchmarks()
	b := smtselect.DefaultP7Benchmarks()
	a[0] = "mutated"
	if b[0] == "mutated" {
		t.Fatal("DefaultP7Benchmarks leaks internal state")
	}
	if len(smtselect.DefaultI7Benchmarks()) == 0 {
		t.Fatal("empty i7 set")
	}
}

func TestRunWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	m, err := smtselect.NewPOWER7Machine(1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := smtselect.Workload("Swaptions")
	if err != nil {
		t.Fatal(err)
	}
	res, err := smtselect.RunWorkload(context.Background(), m, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallCycles <= 0 || res.Counters.Retired == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Metric.Value <= 0 {
		t.Fatalf("metric %v, want positive", res.Metric.Value)
	}
	if res.UsefulInstrs <= 0 {
		t.Fatal("no useful instructions recorded")
	}
	// Determinism through the public API.
	res2, err := smtselect.RunWorkload(context.Background(), m, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.WallCycles != res.WallCycles {
		t.Fatalf("non-deterministic: %d vs %d", res.WallCycles, res2.WallCycles)
	}
}

// cancelAtFirstPoll is a context canceled at the simulator's first context
// poll. Its Err stays nil until Done is first requested, which only the run
// loop does, some thousands of simulated cycles in; so a run under it always
// makes progress before the cut, however slow its setup is.
type cancelAtFirstPoll struct {
	once sync.Once
	done chan struct{}
}

func (c *cancelAtFirstPoll) Deadline() (time.Time, bool) { return time.Time{}, false }

func (c *cancelAtFirstPoll) Done() <-chan struct{} {
	c.once.Do(func() { close(c.done) })
	return c.done
}

func (c *cancelAtFirstPoll) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

func (c *cancelAtFirstPoll) Value(any) any { return nil }

// TestRunWorkloadReturnsPartialResult: a run cut by its context hands back
// what it measured up to the cut alongside the context's error.
func TestRunWorkloadReturnsPartialResult(t *testing.T) {
	m, err := smtselect.NewPOWER7Machine(1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := smtselect.Workload("EP")
	if err != nil {
		t.Fatal(err)
	}
	res, err := smtselect.RunWorkload(&cancelAtFirstPoll{done: make(chan struct{})}, m, spec, 42)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cpu.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res.WallCycles <= 0 || res.Counters.Retired == 0 {
		t.Fatalf("no partial result: wall %d, retired %d", res.WallCycles, res.Counters.Retired)
	}
	if !res.Metric.Finite() {
		t.Fatalf("partial metric not finite: %+v", res.Metric)
	}
}

func TestBestSMTLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	spec, err := smtselect.Workload("EP")
	if err != nil {
		t.Fatal(err)
	}
	best, all, err := smtselect.BestSMTLevel(context.Background(), smtselect.POWER7(), 1, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 {
		t.Fatalf("EP best level SMT%d, want SMT4", best)
	}
	if len(all) != 3 {
		t.Fatalf("%d levels measured, want 3", len(all))
	}
	if all[4].WallCycles >= all[1].WallCycles {
		t.Fatal("SMT4 not faster than SMT1 for EP")
	}
}

func TestPredictLowerSMT(t *testing.T) {
	var met smtselect.Metric
	met.Value = 0.5
	if !smtselect.PredictLowerSMT(met, 0.2) {
		t.Fatal("high metric should predict lower SMT")
	}
	met.Value = 0.1
	if smtselect.PredictLowerSMT(met, 0.2) {
		t.Fatal("low metric should keep SMT")
	}
}

func TestCalibrateSmallSet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	// A small but well-conditioned set: two clear SMT winners with low
	// metrics and two clear SMT losers with high metrics.
	cal, err := smtselect.Calibrate(context.Background(), smtselect.POWER7(), 1,
		[]string{"EP", "Blackscholes", "Stream", "SSCA2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Points) != 4 {
		t.Fatalf("%d calibration points, want 4", len(cal.Points))
	}
	if cal.GiniThreshold <= 0 {
		t.Fatalf("gini threshold %v", cal.GiniThreshold)
	}
	if cal.Accuracy < 0.75 {
		t.Fatalf("calibration accuracy %v", cal.Accuracy)
	}
	if cal.GiniLo > cal.GiniHi {
		t.Fatal("gini range inverted")
	}
}

func TestCalibrateUnknownBench(t *testing.T) {
	if _, err := smtselect.Calibrate(context.Background(), smtselect.POWER7(), 1, []string{"nope"}, 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestComputeMetricMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	m, _ := smtselect.NewPOWER7Machine(1)
	spec, _ := smtselect.Workload("Vips")
	res, err := smtselect.RunWorkload(context.Background(), m, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	again := smtselect.ComputeMetric(m.Arch(), &res.Counters)
	if again.Value != res.Metric.Value {
		t.Fatalf("metric recomputation differs: %v vs %v", again.Value, res.Metric.Value)
	}
}
