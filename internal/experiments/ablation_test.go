package experiments

import (
	"context"
	"testing"
)

func TestAblationStudyRuns(t *testing.T) {
	skipHeavySim(t)
	m := NewMatrix(fig6.Sys, DefaultSeed)
	f := fig6
	f.Benches = []string{"EP", "Blackscholes", "Stream", "SSCA2", "SPECjbb_contention", "Dedup", "Swim", "BT"}
	res := AblationStudy(context.Background(), m, f)
	if len(res) < 10 {
		t.Fatalf("only %d predictors evaluated", len(res))
	}
	byName := map[string]PredictorResult{}
	for _, r := range res {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("%s accuracy %v out of range", r.Name, r.Accuracy)
		}
		byName[r.Name] = r
	}
	full := byName["SMTsm (full)"]
	if full.Accuracy < 0.85 {
		t.Fatalf("full metric accuracy %.2f on the subset, want >= 0.85", full.Accuracy)
	}
	if byName["oracle (run both levels)"].Accuracy != 1 {
		t.Fatal("oracle must be perfect")
	}
	// The IPC probe must fall for the spin-inflation trap on the
	// contended workload.
	probe := byName["IPC probe (switch and observe)"]
	foundContention := false
	for _, b := range probe.Misclassified {
		if b == "SPECjbb_contention" || b == "SSCA2" {
			foundContention = true
		}
	}
	if !foundContention && probe.Accuracy == 1 {
		t.Fatal("IPC probe did not exhibit the paper's spin-inflation failure mode")
	}
}

func TestSensitivityVariantsValid(t *testing.T) {
	for _, v := range SensitivityVariants {
		d := P7OneChip.Arch()
		v.Mutate(d)
		if err := d.Validate(); err != nil {
			t.Errorf("variant %s produces an invalid architecture: %v", v.Name, err)
		}
	}
}

func TestSensitivityBaseline(t *testing.T) {
	skipHeavySim(t)
	rows, err := Sensitivity(context.Background(), DefaultSeed, SensitivityVariants[0]) // baseline only, for speed
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Variant != "baseline" {
		t.Fatal("first variant must be the baseline")
	}
	if rows[0].Accuracy < 0.85 {
		t.Fatalf("baseline sensitivity accuracy %.2f", rows[0].Accuracy)
	}
	if !rows[0].Separable {
		t.Fatal("baseline subset must separate perfectly")
	}
}
