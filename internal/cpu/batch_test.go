package cpu

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// batchVariant is one workload variant of a batch test: a spec name and an
// instantiation seed.
type batchVariant struct {
	bench string
	seed  uint64
}

// batchCap bounds batch-test runs; both engines and both batch/solo sides
// use the same cap, so capped runs stay bit-comparable.
const batchCap = 150_000

// runVariantsBatch runs the variants through one RunBatch on a fresh
// machine with chipsPer chips per variant. Batch groups are stamped from
// compiled Programs while the solo side instantiates in one shot, so the
// batch-vs-solo comparison also pins stamped instances bit-identical to
// one-shot instantiations.
func runVariantsBatch(t *testing.T, engine Engine, variants []batchVariant, chipsPer int) []BatchResult {
	t.Helper()
	m := newP7(t, len(variants)*chipsPer)
	if err := m.SetEngine(engine); err != nil {
		t.Fatal(err)
	}
	hwPer := m.HardwareThreads() / len(variants)
	srcGroups := make([][]isa.Source, 0, len(variants))
	for _, v := range variants {
		spec, err := workload.Get(v.bench)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.Compile(spec, hwPer, v.seed)
		if err != nil {
			t.Fatal(err)
		}
		srcGroups = append(srcGroups, prog.Instantiate().Sources())
	}
	res, err := m.RunBatch(context.Background(), srcGroups, chipsPer, batchCap)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runVariantSolo runs one variant on a fresh solo machine of the same size
// as one batch group.
func runVariantSolo(t *testing.T, engine Engine, v batchVariant, chips int) BatchResult {
	t.Helper()
	m := newP7(t, chips)
	if err := m.SetEngine(engine); err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Get(v.bench)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.Instantiate(spec, m.HardwareThreads(), v.seed)
	if err != nil {
		t.Fatal(err)
	}
	wall, err := m.RunContext(context.Background(), inst.Sources(), batchCap)
	return BatchResult{Wall: wall, Snapshot: m.Counters(), Err: err}
}

var batchTestVariants = []batchVariant{
	{bench: "Dedup", seed: 3}, // blocking locks: shared sched.Runtime inside the group
	{bench: "CG", seed: 5},    // shared addresses: exercises DRAM homing
	{bench: "EP", seed: 7},    // compute-bound
}

// TestRunBatchMatchesSolo pins the batch isolation contract: every variant
// group of a RunBatch is bit-identical — wall cycles, full counter
// snapshot, error — to a solo machine of the group's chip count running the
// same instantiation.
func TestRunBatchMatchesSolo(t *testing.T) {
	for _, tc := range []struct {
		name     string
		chipsPer int
		variants []batchVariant
	}{
		{name: "chip_per_variant", chipsPer: 1, variants: batchTestVariants},
		// Two chips per group: shared addresses interleave across the
		// group's chips, so remote homing and NUMA penalties must match a
		// solo two-chip machine (Chip.part narrowing).
		{name: "two_chips_per_variant", chipsPer: 2, variants: batchTestVariants[:2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := runVariantsBatch(t, EngineEvent, tc.variants, tc.chipsPer)
			for g, v := range tc.variants {
				solo := runVariantSolo(t, EngineEvent, v, tc.chipsPer)
				if batch[g].Wall != solo.Wall {
					t.Errorf("%s: batch wall %d != solo wall %d", v.bench, batch[g].Wall, solo.Wall)
				}
				if !errors.Is(batch[g].Err, solo.Err) {
					t.Errorf("%s: batch err %v != solo err %v", v.bench, batch[g].Err, solo.Err)
				}
				if !reflect.DeepEqual(batch[g].Snapshot, solo.Snapshot) {
					t.Errorf("%s: batch snapshot diverges from solo:\nbatch: %+v\nsolo:  %+v",
						v.bench, batch[g].Snapshot, solo.Snapshot)
				}
			}
		})
	}
}

// TestRunBatchEngineEquivalence holds the batch path to the same
// event-vs-scan bit-identity contract RunContext has.
func TestRunBatchEngineEquivalence(t *testing.T) {
	ev := runVariantsBatch(t, EngineEvent, batchTestVariants, 1)
	sc := runVariantsBatch(t, EngineScan, batchTestVariants, 1)
	for g := range batchTestVariants {
		if ev[g].Wall != sc[g].Wall || !reflect.DeepEqual(ev[g].Snapshot, sc[g].Snapshot) {
			t.Errorf("group %d (%s): event and scan engines diverge",
				g, batchTestVariants[g].bench)
		}
	}
}

// TestRunBatchDeterminism is the chip-parallel golden test: a batch run is
// bit-identical at any GOMAXPROCS, including fully serial execution. It
// also runs under -race in CI (scripts/ci.sh), where the detector verifies
// the groups really share no mutable state.
func TestRunBatchDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	serial := runVariantsBatch(t, EngineEvent, batchTestVariants, 1)
	runtime.GOMAXPROCS(8)
	parallel8 := runVariantsBatch(t, EngineEvent, batchTestVariants, 1)
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(serial, parallel8) {
		t.Fatalf("batch results differ between GOMAXPROCS 1 and 8:\nserial:   %+v\nparallel: %+v",
			serial, parallel8)
	}
}

// TestRunBatchValidation covers the batch API's rejection paths.
func TestRunBatchValidation(t *testing.T) {
	m := newP7(t, 2)
	spec, err := workload.Get("EP")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.Instantiate(spec, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := inst.Sources()
	ctx := context.Background()
	if _, err := m.RunBatch(ctx, nil, 1, 0); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := m.RunBatch(ctx, [][]isa.Source{srcs}, 0, 0); err == nil {
		t.Error("non-positive chipsPer accepted")
	}
	if _, err := m.RunBatch(ctx, [][]isa.Source{srcs, srcs, srcs}, 1, 0); err == nil {
		t.Error("more groups than chips accepted")
	}
	if _, err := m.RunBatch(ctx, [][]isa.Source{srcs, nil}, 1, 0); err == nil {
		t.Error("empty group accepted")
	}
	big, err := workload.Instantiate(spec, 33, 1)
	if err == nil {
		if _, errRun := m.RunBatch(ctx, [][]isa.Source{big.Sources()}, 1, 0); errRun == nil {
			t.Error("oversubscribed group accepted")
		}
	}
}

// TestRunBatchCycleLimit pins per-group error reporting: a group that hits
// the cycle cap reports ErrCycleLimit with partial counters while a
// finishing group reports success.
func TestRunBatchCycleLimit(t *testing.T) {
	m := newP7(t, 2)
	m.SetSMTLevel(1)
	spec, err := workload.Get("EP")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.Instantiate(spec, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]isa.Source{
		{&fixedStream{n: 1 << 60, class: isa.Int}}, // never finishes
		inst.Sources()[:2],                         // tiny, finishes fast
	}
	res, err := m.RunBatch(context.Background(), groups, 1, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ErrCycleLimit) {
		t.Errorf("capped group err = %v, want ErrCycleLimit", res[0].Err)
	}
	if res[0].Snapshot.Retired == 0 {
		t.Error("capped group reported no partial progress")
	}
	if res[1].Err != nil {
		t.Errorf("finishing group err = %v, want nil", res[1].Err)
	}
}
