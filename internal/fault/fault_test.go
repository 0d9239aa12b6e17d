package fault

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden injected-sequence file")

func testSchedule() *Schedule {
	return &Schedule{
		Seed: 42,
		Rules: []Rule{
			{Op: OpProbe, Mode: ModeDelay, Prob: 0.5, DelayMS: 5, JitterMS: 10},
			{Op: OpProbe, Mode: ModeError, Prob: 0.25},
			{Op: OpCacheGet, Mode: ModeError, Prob: 0.3},
		},
	}
}

// TestDecideDeterministic: the same schedule replayed twice — including a
// concurrent replay — yields the identical action for every (op, index).
func TestDecideDeterministic(t *testing.T) {
	const n = 200
	a := NewInjector(testSchedule())
	b := NewInjector(testSchedule())
	var seqA []Action
	for i := 0; i < n; i++ {
		seqA = append(seqA, a.Decide(OpProbe))
	}
	// Drive b's counter from many goroutines: indices are assigned in an
	// arbitrary order, but DecideAt is index-pure, so the per-index action
	// set must match a serial replay.
	var wg sync.WaitGroup
	seqB := make([]Action, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seqB[i] = b.DecideAt(OpProbe, uint64(i))
		}(i)
	}
	wg.Wait()
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("index %d: serial %+v != concurrent %+v", i, seqA[i], seqB[i])
		}
	}
	// Distinct ops draw from independent streams: cache decisions must not
	// perturb probe decisions.
	c := NewInjector(testSchedule())
	for i := 0; i < 50; i++ {
		c.Decide(OpCacheGet)
	}
	for i := 0; i < n; i++ {
		if got := c.Decide(OpProbe); got != seqA[i] {
			t.Fatalf("probe index %d changed after cache traffic: %+v != %+v", i, got, seqA[i])
		}
	}
}

// goldenAction is the JSON shape of one entry in the golden sequence.
type goldenAction struct {
	Mode    string `json:"mode"`
	DelayNS int64  `json:"delayNs"`
}

// TestScheduleGoldenRoundTrip loads the checked-in JSON schedule and pins
// the first 64 injected probe decisions against the golden file: the wire
// format round-trips and the seeded sequence never drifts.
func TestScheduleGoldenRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "schedule.json"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ParseSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	// Round trip: marshal → parse → identical schedule.
	re, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	sched2, err := ParseSchedule(re)
	if err != nil {
		t.Fatalf("re-parsing marshalled schedule: %v", err)
	}
	if sched2.Seed != sched.Seed || len(sched2.Rules) != len(sched.Rules) {
		t.Fatalf("schedule did not round-trip: %+v vs %+v", sched2, sched)
	}
	for i := range sched.Rules {
		if sched2.Rules[i] != sched.Rules[i] {
			t.Fatalf("rule %d did not round-trip: %+v vs %+v", i, sched2.Rules[i], sched.Rules[i])
		}
	}

	in := NewInjector(sched)
	var got []goldenAction
	for i := 0; i < 64; i++ {
		a := in.Decide(OpProbe)
		got = append(got, goldenAction{Mode: a.Mode, DelayNS: int64(a.Delay)})
	}
	goldenPath := filepath.Join("testdata", "golden_sequence.json")
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var wantSeq []goldenAction
	if err := json.Unmarshal(want, &wantSeq); err != nil {
		t.Fatal(err)
	}
	if len(wantSeq) != len(got) {
		t.Fatalf("golden sequence length %d, got %d", len(wantSeq), len(got))
	}
	for i := range got {
		if got[i] != wantSeq[i] {
			t.Errorf("probe call %d: injected %+v, golden %+v", i, got[i], wantSeq[i])
		}
	}
}

func TestInjectModes(t *testing.T) {
	// error mode
	in := NewInjector(&Schedule{Seed: 1, Rules: []Rule{{Op: OpProbe, Mode: ModeError, Prob: 1}}})
	if err := in.Inject(context.Background(), OpProbe); !errors.Is(err, ErrInjected) {
		t.Fatalf("error mode: err = %v, want ErrInjected", err)
	}
	// delay mode completes and reports no error
	in = NewInjector(&Schedule{Seed: 1, Rules: []Rule{{Op: OpProbe, Mode: ModeDelay, Prob: 1, DelayMS: 1}}})
	start := time.Now()
	if err := in.Inject(context.Background(), OpProbe); err != nil {
		t.Fatalf("delay mode: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay mode did not sleep")
	}
	// hang mode blocks until the context dies
	in = NewInjector(&Schedule{Seed: 1, Rules: []Rule{{Op: OpProbe, Mode: ModeHang, Prob: 1}}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := in.Inject(ctx, OpProbe)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang mode: err = %v, want ErrInjected wrapping DeadlineExceeded", err)
	}
	// delay mode cut short by the context still surfaces both errors
	in = NewInjector(&Schedule{Seed: 1, Rules: []Rule{{Op: OpProbe, Mode: ModeDelay, Prob: 1, DelayMS: 5000}}})
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	err = in.Inject(ctx2, OpProbe)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cut delay: err = %v", err)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Inject(context.Background(), OpProbe); err != nil {
		t.Fatal(err)
	}
	if a := in.Decide(OpProbe); a.Mode != "" {
		t.Fatalf("nil injector decided %+v", a)
	}
	if in.Counts() != nil {
		t.Fatal("nil injector returned counts")
	}
	if NewInjector(nil) != nil {
		t.Fatal("NewInjector(nil) != nil")
	}
}

func TestAfterCountWindows(t *testing.T) {
	in := NewInjector(&Schedule{Seed: 9, Rules: []Rule{
		{Op: OpProbe, Mode: ModeError, Prob: 1, After: 2, Count: 3},
	}})
	var modes []string
	for i := 0; i < 8; i++ {
		modes = append(modes, in.Decide(OpProbe).Mode)
	}
	want := []string{"", "", ModeError, ModeError, ModeError, "", "", ""}
	for i := range want {
		if modes[i] != want[i] {
			t.Fatalf("call %d: mode %q, want %q (all: %v)", i, modes[i], want[i], modes)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{Rules: []Rule{{Op: "nope", Mode: ModeError, Prob: 1}}},
		{Rules: []Rule{{Op: OpProbe, Mode: "nope", Prob: 1}}},
		{Rules: []Rule{{Op: OpProbe, Mode: ModeError, Prob: 2}}},
		{Rules: []Rule{{Op: OpProbe, Mode: ModeError, Prob: -0.1}}},
		{Rules: []Rule{{Op: OpProbe, Mode: ModeDelay, Prob: 1, DelayMS: -1}}},
		{Rules: []Rule{{Op: OpProbe, Mode: ModeError, Prob: 1, After: -1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d accepted: %+v", i, s)
		}
	}
	if _, err := ParseSchedule([]byte(`{"seed":1,"rules":[{"op":"probe","mode":"error","prob":1,"bogus":2}]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSchedule([]byte(`{"seed":1,"rules":[]}`)); err != nil {
		t.Errorf("empty rule list rejected: %v", err)
	}
}

func TestCountsTracksInjections(t *testing.T) {
	in := NewInjector(&Schedule{Seed: 3, Rules: []Rule{
		{Op: OpProbe, Mode: ModeError, Prob: 1, Count: 2},
	}})
	for i := 0; i < 5; i++ {
		//lint:ignore errlint the injected error is the behaviour under test, counted below
		_ = in.Inject(context.Background(), OpProbe)
	}
	counts := in.Counts()
	if counts["probe/error"] != 2 || counts["probe/calls"] != 5 {
		t.Fatalf("counts %v, want probe/error=2 probe/calls=5", counts)
	}
}
