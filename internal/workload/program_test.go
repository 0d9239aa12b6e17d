package workload

import (
	"testing"

	"repro/internal/isa"
)

// epLike returns a small compute-heavy spec for program tests.
func epLike(name string) *Spec {
	return &Spec{
		Name:         name,
		Mix:          Mix{Load: 0.2, Branch: 0.1, Int: 0.4, FPVec: 0.3},
		Chains:       2,
		ChainFrac:    0.8,
		WorkingSetKB: 16,
		TotalWork:    40_000,
		IterLen:      1000,
	}
}

// drainStream fetches up to limit instructions from src, returning the
// instruction sequence.
func drainStream(t *testing.T, src isa.Source, limit int) []isa.Inst {
	t.Helper()
	out := make([]isa.Inst, 0, limit)
	var in isa.Inst
	for i := 0; i < limit; i++ {
		st := src.Fetch(int64(i), &in)
		if st == isa.FetchDone {
			break
		}
		if st != isa.FetchOK {
			t.Fatalf("fetch %d: unexpected status %v", i, st)
		}
		out = append(out, in)
	}
	return out
}

// TestProgramInstantiateMatchesLegacy pins the compiled path bit-identical
// to the one-shot Instantiate: the instruction streams of an instance
// stamped from a Program equal those of a fresh legacy instantiation.
func TestProgramInstantiateMatchesLegacy(t *testing.T) {
	spec := epLike("cachetest")
	p, err := Compile(spec, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Instantiate(spec, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	stamped := p.Instantiate()
	for i := range fresh.Threads {
		a := drainStream(t, fresh.Sources()[i], 3000)
		b := drainStream(t, stamped.Sources()[i], 3000)
		if len(a) != len(b) {
			t.Fatalf("thread %d: stream lengths diverge (%d vs %d)", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("thread %d: streams diverge at %d: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
}

// TestProgramInstancesIndependent pins the copy-on-write split: instances
// stamped from one shared Program advance independently — draining one must
// not disturb a sibling's stream.
func TestProgramInstancesIndependent(t *testing.T) {
	p, err := Compile(epLike("cachetest"), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := drainStream(t, p.Instantiate().Sources()[0], 2000)

	a, b := p.Instantiate(), p.Instantiate()
	drainStream(t, a.Sources()[0], 1500) // advance a's cursors
	got := drainStream(t, b.Sources()[0], 2000)
	if len(got) != len(ref) {
		t.Fatalf("sibling stream length diverged: %d vs %d", len(got), len(ref))
	}
	for j := range ref {
		if got[j] != ref[j] {
			t.Fatalf("sibling stream disturbed at %d", j)
		}
	}
}
