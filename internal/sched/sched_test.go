package sched

import (
	"testing"

	"repro/internal/isa"
)

// listScript replays a fixed list of segments.
type listScript struct {
	segs []Segment
	pos  int
}

func (l *listScript) NextSegment(seg *Segment) bool {
	if l.pos >= len(l.segs) {
		return false
	}
	*seg = l.segs[l.pos]
	l.pos++
	return true
}

// constGen emits integer instructions.
type constGen struct{ class isa.Class }

func (g constGen) Gen(out *isa.Inst) { *out = isa.Inst{Class: g.class} }

// drain pulls instructions from a thread at consecutive cycles until done,
// returning the classes fetched and the number of idle cycles observed.
func drain(t *Thread, maxCycles int) (classes []isa.Class, idle int) {
	var inst isa.Inst
	for now := int64(0); now < int64(maxCycles); now++ {
		switch t.Fetch(now, &inst) {
		case isa.FetchOK:
			classes = append(classes, inst.Class)
		case isa.FetchIdle:
			idle++
		case isa.FetchDone:
			return classes, idle
		}
	}
	return classes, idle
}

func TestComputeSegment(t *testing.T) {
	rt := NewRuntime(1)
	th := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegCompute, N: 5, Gen: constGen{isa.Int}},
	}})
	classes, idle := drain(th, 100)
	if len(classes) != 5 || idle != 0 {
		t.Fatalf("got %d instructions, %d idle; want 5, 0", len(classes), idle)
	}
	if th.UsefulInstrs != 5 {
		t.Fatalf("useful = %d, want 5", th.UsefulInstrs)
	}
}

func TestEmptyScriptIsDone(t *testing.T) {
	rt := NewRuntime(1)
	th := rt.NewThread(&listScript{})
	var inst isa.Inst
	if st := th.Fetch(0, &inst); st != isa.FetchDone {
		t.Fatalf("status %v, want done", st)
	}
	// Fetch after done must keep reporting done.
	if st := th.Fetch(1, &inst); st != isa.FetchDone {
		t.Fatalf("repeat status %v, want done", st)
	}
}

func TestSleepSegment(t *testing.T) {
	rt := NewRuntime(1)
	th := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegSleep, N: 10},
		{Kind: SegCompute, N: 1, Gen: constGen{isa.Int}},
	}})
	var inst isa.Inst
	if st := th.Fetch(0, &inst); st != isa.FetchIdle {
		t.Fatalf("status %v during sleep, want idle", st)
	}
	if hint := th.WakeHint(0); hint != 10 {
		t.Fatalf("wake hint %d, want 10", hint)
	}
	if st := th.Fetch(5, &inst); st != isa.FetchIdle {
		t.Fatal("woke early")
	}
	if st := th.Fetch(10, &inst); st != isa.FetchOK {
		t.Fatalf("status %v at wake time, want OK", st)
	}
}

func TestUncontendedSpinLock(t *testing.T) {
	rt := NewRuntime(1)
	l := rt.AddLock(SpinLock)
	th := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegLockAcquire, Lock: l},
		{Kind: SegCompute, N: 3, Gen: constGen{isa.Int}},
		{Kind: SegLockRelease, Lock: l},
	}})
	classes, _ := drain(th, 100)
	if len(classes) != 3 {
		t.Fatalf("%d instructions through an uncontended lock, want 3", len(classes))
	}
	if th.SpinInstrs != 0 {
		t.Fatalf("%d spin instructions without contention", th.SpinInstrs)
	}
}

func TestContendedSpinLockEmitsSpinLoop(t *testing.T) {
	rt := NewRuntime(2)
	l := rt.AddLock(SpinLock)
	holder := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegLockAcquire, Lock: l},
		{Kind: SegCompute, N: 50, Gen: constGen{isa.FPVec}},
		{Kind: SegLockRelease, Lock: l},
	}})
	waiter := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegLockAcquire, Lock: l},
		{Kind: SegLockRelease, Lock: l},
	}})

	var inst isa.Inst
	// Holder takes the lock at cycle 0.
	if st := holder.Fetch(0, &inst); st != isa.FetchOK {
		t.Fatalf("holder status %v", st)
	}
	// Waiter must spin: loads, ints and branches.
	seen := map[isa.Class]bool{}
	for now := int64(1); now < 20; now++ {
		if st := waiter.Fetch(now, &inst); st != isa.FetchOK {
			t.Fatalf("waiter status %v while spinning", st)
		}
		seen[inst.Class] = true
	}
	if !seen[isa.Load] || !seen[isa.Int] || !seen[isa.Branch] {
		t.Fatalf("spin loop classes %v, want load/int/branch", seen)
	}
	if waiter.SpinInstrs == 0 {
		t.Fatal("no spin instructions counted")
	}
	// Drain the holder (releases at its last segment), then the waiter
	// must acquire and finish.
	drain(holder, 1000)
	for now := int64(20); waiter.Fetch(now, &inst) != isa.FetchDone; now++ {
		if now == 1000 {
			t.Fatal("waiter never finished after the holder released the lock")
		}
	}
}

func TestBlockingLockSleepsAndHandsOff(t *testing.T) {
	rt := NewRuntime(2)
	l := rt.AddLock(BlockingLock)
	holder := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegLockAcquire, Lock: l},
		{Kind: SegCompute, N: 10, Gen: constGen{isa.Int}},
		{Kind: SegLockRelease, Lock: l},
	}})
	waiter := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegLockAcquire, Lock: l},
		{Kind: SegCompute, N: 1, Gen: constGen{isa.Int}},
		{Kind: SegLockRelease, Lock: l},
	}})

	var inst isa.Inst
	holder.Fetch(0, &inst) // acquires
	if st := waiter.Fetch(1, &inst); st != isa.FetchIdle {
		t.Fatalf("waiter status %v, want idle (blocking lock)", st)
	}
	if waiter.SpinInstrs != 0 {
		t.Fatal("blocking waiter spun")
	}
	// Drain the holder; the release hands the lock to the waiter with a
	// wake latency.
	var releaseCycle int64
	for now := int64(1); ; now++ {
		if st := holder.Fetch(now, &inst); st == isa.FetchDone {
			releaseCycle = now
			break
		}
	}
	if st := waiter.Fetch(releaseCycle, &inst); st != isa.FetchIdle {
		t.Fatal("waiter ran before the wake latency elapsed")
	}
	if st := waiter.Fetch(releaseCycle+WakeLatency+1, &inst); st != isa.FetchOK {
		t.Fatalf("waiter status %v after wake latency, want OK", st)
	}
}

func TestBarrierSpinAndRelease(t *testing.T) {
	rt := NewRuntime(2)
	b := rt.AddBarrier(SpinLock, 2)
	t1 := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegBarrier, Barrier: b},
		{Kind: SegCompute, N: 1, Gen: constGen{isa.Int}},
	}})
	t2 := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegBarrier, Barrier: b},
		{Kind: SegCompute, N: 1, Gen: constGen{isa.Int}},
	}})

	var inst isa.Inst
	// t1 arrives first and must spin.
	if st := t1.Fetch(0, &inst); st != isa.FetchOK || inst.Class != isa.Load {
		t.Fatalf("first arriver should emit the spin load, got %v/%v", st, inst.Class)
	}
	// t2 arrives: barrier opens, t2 passes straight to compute.
	if st := t2.Fetch(1, &inst); st != isa.FetchOK || inst.Class != isa.Int {
		t.Fatalf("last arriver should pass through, got %v/%v", st, inst.Class)
	}
	// t1 now passes on its next fetch cycle.
	found := false
	for now := int64(1); now < 10; now++ {
		t1.Fetch(now, &inst)
		if inst.Class == isa.Int {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("first arriver never passed the opened barrier")
	}
}

func TestBarrierSleepKind(t *testing.T) {
	rt := NewRuntime(2)
	b := rt.AddBarrier(BlockingLock, 2)
	t1 := rt.NewThread(&listScript{segs: []Segment{{Kind: SegBarrier, Barrier: b}}})
	t2 := rt.NewThread(&listScript{segs: []Segment{{Kind: SegBarrier, Barrier: b}}})
	var inst isa.Inst
	if st := t1.Fetch(0, &inst); st != isa.FetchIdle {
		t.Fatalf("sleeping barrier waiter status %v, want idle", st)
	}
	t2.Fetch(1, &inst) // opens the barrier, t2 is done
	// t1 wakes after the wake latency.
	if st := t1.Fetch(2, &inst); st != isa.FetchIdle {
		t.Fatal("t1 woke without wake latency")
	}
	if st := t1.Fetch(2+WakeLatency, &inst); st != isa.FetchDone {
		t.Fatalf("t1 status %v after wake, want done", st)
	}
}

func TestBarrierReuse(t *testing.T) {
	// Sense-reversing barrier must work across generations.
	rt := NewRuntime(2)
	b := rt.AddBarrier(SpinLock, 2)
	mk := func() *Thread {
		return rt.NewThread(&listScript{segs: []Segment{
			{Kind: SegBarrier, Barrier: b},
			{Kind: SegBarrier, Barrier: b},
			{Kind: SegCompute, N: 1, Gen: constGen{isa.Int}},
		}})
	}
	t1, t2 := mk(), mk()
	var inst isa.Inst
	done1, done2 := false, false
	for now := int64(0); now < 10_000 && !(done1 && done2); now++ {
		if !done1 && t1.Fetch(now, &inst) == isa.FetchDone {
			done1 = true
		}
		if !done2 && t2.Fetch(now, &inst) == isa.FetchDone {
			done2 = true
		}
	}
	if !done1 || !done2 {
		t.Fatal("threads stuck across barrier generations")
	}
	if t1.UsefulInstrs != 1 || t2.UsefulInstrs != 1 {
		t.Fatal("compute after double barrier did not run")
	}
}

func TestLockErrorPaths(t *testing.T) {
	rt := NewRuntime(1)
	l := rt.AddLock(SpinLock)
	th := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegLockRelease, Lock: l},
	}})
	defer func() {
		if recover() == nil {
			t.Fatal("releasing an unheld lock did not panic")
		}
	}()
	var inst isa.Inst
	th.Fetch(0, &inst)
}

func TestWakeHints(t *testing.T) {
	rt := NewRuntime(2)
	l := rt.AddLock(BlockingLock)
	holder := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegLockAcquire, Lock: l},
		{Kind: SegCompute, N: 100, Gen: constGen{isa.Int}},
		{Kind: SegLockRelease, Lock: l},
	}})
	waiter := rt.NewThread(&listScript{segs: []Segment{
		{Kind: SegLockAcquire, Lock: l},
		{Kind: SegLockRelease, Lock: l},
	}})
	var inst isa.Inst
	holder.Fetch(0, &inst)
	waiter.Fetch(0, &inst)
	// A blocked waiter without a grant cannot name a wake time.
	if h := waiter.WakeHint(5); h <= 5 || h < farFuture {
		t.Fatalf("blocked waiter hint %d, want far future", h)
	}
	// A runnable thread's hint is "now".
	if h := holder.WakeHint(5); h != 5 {
		t.Fatalf("runnable thread hint %d, want now", h)
	}
}

func TestRuntimeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRuntime(0) did not panic")
		}
	}()
	NewRuntime(0)
}

func TestBarrierValidation(t *testing.T) {
	rt := NewRuntime(1)
	defer func() {
		if recover() == nil {
			t.Fatal("AddBarrier(_, 0) did not panic")
		}
	}()
	rt.AddBarrier(SpinLock, 0)
}
