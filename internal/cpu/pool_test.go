package cpu

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
)

// poolWorkload builds the source set used to exercise pooled machines.
func poolWorkload() []isa.Source {
	return []isa.Source{
		&fixedStream{n: 5_000, class: isa.Int},
		&fixedStream{n: 4_000, class: isa.Load, step: 64, mask: 1<<20 - 1},
		&fixedStream{n: 3_000, class: isa.FPVec, dep: 2},
	}
}

// TestPoolIdentity pins the pooling contract: a machine scrubbed by
// Pool.Get is bit-identical in behavior to a freshly constructed one, even
// after a previous tenant dirtied its caches, counters, clock, SMT level
// and engine selection.
func TestPoolIdentity(t *testing.T) {
	d := arch.POWER7()
	p := NewPool(2)

	dirty, err := p.Get(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dirty.SetSMTLevel(2); err != nil {
		t.Fatal(err)
	}
	if err := dirty.SetEngine(EngineScan); err != nil {
		t.Fatal(err)
	}
	if _, err := dirty.RunContext(context.Background(), poolWorkload(), 0); err != nil {
		t.Fatal(err)
	}
	p.Put(dirty)

	pooled, err := p.Get(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pooled != dirty {
		t.Fatal("expected the parked machine back")
	}
	fresh, err := NewMachine(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.SMTLevel() != fresh.SMTLevel() || pooled.Engine() != fresh.Engine() || pooled.Now() != fresh.Now() {
		t.Fatalf("scrubbed machine differs: smt %d/%d engine %d/%d now %d/%d",
			pooled.SMTLevel(), fresh.SMTLevel(), pooled.Engine(), fresh.Engine(), pooled.Now(), fresh.Now())
	}

	wallP, errP := pooled.RunContext(context.Background(), poolWorkload(), 0)
	wallF, errF := fresh.RunContext(context.Background(), poolWorkload(), 0)
	if errP != nil || errF != nil {
		t.Fatalf("runs failed: pooled %v, fresh %v", errP, errF)
	}
	if wallP != wallF {
		t.Fatalf("wall cycles diverge: pooled %d, fresh %d", wallP, wallF)
	}
	sp, sf := pooled.Counters(), fresh.Counters()
	if !reflect.DeepEqual(sp, sf) {
		t.Fatalf("counters diverge:\npooled: %+v\nfresh:  %+v", sp, sf)
	}
	checkConservation(t, d, sp, true)

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}
}

// TestPoolKeysAndBounds checks machines only come back for matching
// (arch, chips) keys and that full shelves drop.
func TestPoolKeysAndBounds(t *testing.T) {
	p := NewPool(1)
	m1, err := p.Get(arch.POWER7(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.Get(arch.POWER7(), 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(m1)
	p.Put(m2)

	got, err := p.Get(arch.POWER7(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != m2 {
		t.Fatal("chips=2 Get returned a machine from another key")
	}
	if n, err := p.Get(arch.Nehalem(), 1); err != nil {
		t.Fatal(err)
	} else if n == m1 {
		t.Fatal("nehalem Get returned a POWER7 machine")
	}

	// Shelf capacity is 1 and m1 still occupies the chips=1 shelf, so a
	// further Put on that key drops.
	extra, err := NewMachine(arch.POWER7(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(extra)
	if st := p.Stats(); st.Drops != 1 {
		t.Fatalf("stats = %+v, want exactly 1 drop", st)
	}
}

// TestPoolConcurrent hammers Get/Put from many goroutines; the -race run
// of this package is the point.
func TestPoolConcurrent(t *testing.T) {
	p := NewPool(4)
	d := arch.POWER7()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				m, err := p.Get(d, 1)
				if err != nil {
					t.Error(err)
					return
				}
				srcs := []isa.Source{&fixedStream{n: 200, class: isa.Int}}
				if _, err := m.RunContext(context.Background(), srcs, 0); err != nil {
					t.Error(err)
					return
				}
				p.Put(m)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != 80 {
		t.Fatalf("stats = %+v, want 80 gets", st)
	}
}
