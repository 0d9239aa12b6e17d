package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean([1 2 3]) != 2")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	r, err := Pearson(xs, ys)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Fatalf("r = %v err %v, want 1", r, err)
	}
	neg := []float64{40, 30, 20, 10}
	r, _ = Pearson(xs, neg)
	if !almost(r, -1, 1e-12) {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonNoCorrelation(t *testing.T) {
	rng := xrand.New(1)
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.06 {
		t.Fatalf("independent samples correlate at %v", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{2, 3, 4})
	if err != nil || r != 0 {
		t.Fatalf("r = %v err %v for a constant sample, want 0", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch not detected")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("too-short sample not detected")
	}
}

func TestPearsonBounds(t *testing.T) {
	rng := xrand.New(7)
	if err := quick.Check(func(seed uint64) bool {
		n := int(seed%30) + 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		r, err := Pearson(xs, ys)
		return err == nil && r >= -1-1e-9 && r <= 1+1e-9
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRanks(t *testing.T) {
	got := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks %v, want %v", got, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{5, 5, 1})
	// The two 5s occupy ranks 2 and 3 -> each gets 2.5.
	if got[0] != 2.5 || got[1] != 2.5 || got[2] != 1 {
		t.Fatalf("ranks with ties %v, want [2.5 2.5 1]", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// A monotone nonlinear relation has Spearman 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	r, err := Spearman(xs, ys)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Fatalf("spearman %v err %v, want 1", r, err)
	}
}
