package cpu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
)

// checkConservation asserts the counter conservation laws on d, the
// counter delta of one run on a machine of architecture a. The laws hold
// whatever the stage code does with timing, so they referee the stage
// functions both engines share, which the engine-equivalence tests cannot:
//
//   - Retired is the sum of RetiredByClass;
//   - dispatch is held on at most every core-cycle;
//   - no thread is busy longer than the wall clock;
//   - no branch mispredicts without a lookup;
//   - a run that completes issues exactly one slot per retired
//     instruction plus one per extra port its class takes (a Nehalem
//     store's store-data slot), since every issued instruction retires
//     and no instruction issues twice.
//
// A run cut by its cycle limit or by cancellation leaves issued work in
// flight, so the issue law applies only when completed is true.
func checkConservation(t *testing.T, a *arch.Desc, d counters.Snapshot, completed bool) {
	t.Helper()
	var byClass uint64
	for _, n := range d.RetiredByClass {
		byClass += n
	}
	if d.Retired != byClass {
		t.Errorf("conservation: Retired %d != sum of RetiredByClass %d", d.Retired, byClass)
	}
	if d.DispHeldCycles > d.CoreCycles {
		t.Errorf("conservation: DispHeldCycles %d > CoreCycles %d", d.DispHeldCycles, d.CoreCycles)
	}
	for i, b := range d.ThreadBusy {
		if b > d.WallCycles {
			t.Errorf("conservation: thread %d busy %d > WallCycles %d", i, b, d.WallCycles)
		}
	}
	if d.BranchMispredicts > d.BranchLookups {
		t.Errorf("conservation: BranchMispredicts %d > BranchLookups %d", d.BranchMispredicts, d.BranchLookups)
	}
	if !completed {
		return
	}
	var issued uint64
	for _, n := range d.IssuedByPort {
		issued += n
	}
	want := d.Retired
	for c, n := range d.RetiredByClass {
		want += n * uint64(a.ExtraPorts[c].Count())
	}
	if issued != want {
		t.Errorf("conservation: completed run issued %d slots, want %d (Retired %d plus extra ports)", issued, want, d.Retired)
	}
}
