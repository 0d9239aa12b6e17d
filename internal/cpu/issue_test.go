package cpu

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/golden"
	"repro/internal/isa"
)

// patternStream emits n instructions cycling through a hand-written
// pattern, starting at position i. A memory instruction's address is its
// pattern address plus base, and base advances by step each time the
// pattern wraps, so a step past the cache sizes makes every pass miss to
// DRAM.
type patternStream struct {
	n    int64
	pat  []isa.Inst
	i    int
	base uint64
	step uint64
}

// ComputeRun implements ComputeRunner, as fixedStream does, so pattern
// streams also run through macro-stepped spans.
func (s *patternStream) ComputeRun() int64 { return s.n }

func (s *patternStream) Fetch(now int64, out *isa.Inst) isa.FetchStatus {
	if s.n <= 0 {
		return isa.FetchDone
	}
	s.n--
	*out = s.pat[s.i]
	if out.Class.IsMemory() {
		out.Addr += s.base
	}
	if s.i++; s.i == len(s.pat) {
		s.i = 0
		s.base += s.step
	}
	return isa.FetchOK
}

// depShapes are the dependency shapes the issue stage must wake exactly:
// an operand named only through Dep2, both operands naming one producer,
// distances past isa.MaxDepDistance up to the largest uint8, and producers
// that complete late or hold their port (DRAM-missing loads, divides,
// stores and multiplies).
var depShapes = []struct {
	name string
	pat  []isa.Inst
}{
	{"dep2_only", []isa.Inst{
		{Class: isa.Load},
		{Class: isa.Int, Dep2: 1},
		{Class: isa.FPVec, Dep2: 2},
		{Class: isa.IntMul, Dep2: 1},
		{Class: isa.Int, Dep2: 3},
		{Class: isa.Load, Addr: 64, Dep2: 1},
	}},
	{"same_producer", []isa.Inst{
		{Class: isa.Load},
		{Class: isa.Int, Dep1: 1, Dep2: 1},
		{Class: isa.FPDiv, Dep1: 1, Dep2: 1},
		{Class: isa.FPVec, Dep1: 1, Dep2: 1},
		{Class: isa.Store, Addr: 64, Dep1: 3, Dep2: 3},
	}},
	{"far", []isa.Inst{
		{Class: isa.Int, Dep1: 64},
		{Class: isa.FPVec, Dep1: 128, Dep2: 255},
		{Class: isa.Load, Dep2: 200},
		{Class: isa.IntMul, Dep1: 255, Dep2: 1},
		{Class: isa.Int, Dep1: 97, Dep2: 97},
		{Class: isa.FPDiv, Dep2: 160},
		{Class: isa.Store, Addr: 64, Dep1: 1, Dep2: 254},
	}},
	{"producers", []isa.Inst{
		{Class: isa.Load},
		{Class: isa.Int, Dep1: 1},
		{Class: isa.FPDiv},
		{Class: isa.FPVec, Dep1: 1, Dep2: 3},
		{Class: isa.Store, Addr: 128},
		{Class: isa.Int, Dep2: 1},
		{Class: isa.IntMul},
		{Class: isa.Int, Dep1: 1, Dep2: 4},
		{Class: isa.Branch, Addr: 0x400, Taken: true, Dep1: 2},
		{Class: isa.FPVec, Dep1: 8},
	}},
}

// shapeStreams returns threads pattern streams of n instructions each.
// Each thread starts at its own pattern position and walks its own
// address region, 1 MiB further on each pass.
func shapeStreams(pat []isa.Inst, threads int, n int64) []isa.Source {
	srcs := make([]isa.Source, threads)
	for k := range srcs {
		srcs[k] = &patternStream{n: n, pat: pat, i: k % len(pat), base: uint64(k) << 32, step: 1 << 20}
	}
	return srcs
}

// shapeCycleCap bounds the full dependency-shape runs, which take at most
// about 160k cycles.
const shapeCycleCap = 2_000_000

// TestEngineEquivalenceDepShapes runs each hand-written dependency shape
// on two cores of POWER7 at SMT1/2/4 and Nehalem at SMT1/2, to completion
// and cut at half its length, compares the engines and pins the agreed
// result across commits. Library workloads draw distances up to
// isa.MaxDepDistance and always name a Dep1 before a Dep2; these shapes
// cover what they do not.
func TestEngineEquivalenceDepShapes(t *testing.T) {
	machines := []struct {
		name string
		desc func() *arch.Desc
		smt  []int
	}{
		{"power7", arch.POWER7, []int{1, 2, 4}},
		{"nehalem", arch.Nehalem, []int{1, 2}},
	}
	for _, shape := range depShapes {
		t.Run(shape.name, func(t *testing.T) {
			pins := map[string]enginePin{}
			for _, mc := range machines {
				for _, smt := range mc.smt {
					// The full run stops at shapeCycleCap only if an
					// instruction never issues; the capped run stops
					// halfway through the full one.
					key := fmt.Sprintf("%s_smt%d", mc.name, smt)
					maxCycles := int64(shapeCycleCap)
					for _, suffix := range []string{"", "_capped"} {
						mk := func() []isa.Source { return shapeStreams(shape.pat, 2*smt, 4000) }
						scan := runWithEngine(t, EngineScan, mc.desc(), 1, smt, mk(), maxCycles)
						event := runWithEngine(t, EngineEvent, mc.desc(), 1, smt, mk(), maxCycles)
						comparePair(t, scan, event)
						pins[key+suffix] = event.pin()
						maxCycles = event.wall/2 + 1
					}
				}
			}
			golden.Assert(t, "depshape_"+shape.name, pins)
		})
	}
}

// Fuzz input layout for FuzzIssueStreams: the first byte picks the stream
// count, and each following issueInstBytes-byte group is one instruction,
// dealt to the streams in turn.
const (
	issueInstBytes     = 4
	issueMaxPattern    = 64  // instructions per stream pattern
	issueStreamLen     = 512 // dynamic instructions per stream
	issueTakenBit      = 0x80
	issueSharedBit     = 0x40
	issueCyclesPerInst = 2_000
)

// issueStreams decodes fuzz input into 1–4 pattern streams. An
// instruction's bytes are its class (the taken and shared flags in the
// high bits), Dep1, Dep2 and address; the address byte picks one of 256
// lines 4 KiB apart in a region each pass moves 1 MiB on, so the first
// touch of each pass misses to DRAM.
func issueStreams(data []byte) []isa.Source {
	if len(data) < 1+issueInstBytes {
		return nil
	}
	pats := make([][]isa.Inst, 1+int(data[0])%4)
	for k, b := 0, data[1:]; len(b) >= issueInstBytes; k, b = k+1, b[issueInstBytes:] {
		p := &pats[k%len(pats)]
		if len(*p) == issueMaxPattern {
			break
		}
		*p = append(*p, isa.Inst{
			Class:      isa.Class(b[0]&^(issueTakenBit|issueSharedBit)) % isa.NumClasses,
			Taken:      b[0]&issueTakenBit != 0,
			SharedAddr: b[0]&issueSharedBit != 0,
			Dep1:       b[1],
			Dep2:       b[2],
			Addr:       uint64(b[3]) << 12,
		})
	}
	var srcs []isa.Source
	for k, pat := range pats {
		if len(pat) > 0 {
			srcs = append(srcs, &patternStream{n: issueStreamLen, pat: pat, base: uint64(k) << 32, step: 1 << 20})
		}
	}
	return srcs
}

// issueSeed encodes pat as fuzz input for streams identical streams.
func issueSeed(pat []isa.Inst, streams int) []byte {
	data := []byte{byte(streams - 1)}
	for _, in := range pat {
		b0 := byte(in.Class)
		if in.Taken {
			b0 |= issueTakenBit
		}
		if in.SharedAddr {
			b0 |= issueSharedBit
		}
		for s := 0; s < streams; s++ {
			data = append(data, b0, in.Dep1, in.Dep2, byte(in.Addr>>6))
		}
	}
	return data
}

// FuzzIssueStreams drives the issue stage with arbitrary dependency
// shapes: 1–4 streams share one POWER7 core at SMT4, and both engines must
// finish them well inside a cycle cap that no correct run approaches (an
// instruction that never issues shows up as ErrCycleLimit) and agree on
// wall time and every counter.
func FuzzIssueStreams(f *testing.F) {
	for _, shape := range depShapes {
		f.Add(issueSeed(shape.pat, 1))
		f.Add(issueSeed(shape.pat, 4))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if issueStreams(data) == nil {
			return
		}
		maxCycles := int64(100_000 + issueCyclesPerInst*4*issueStreamLen)
		var res [2]engineResult
		for e, eng := range []Engine{EngineScan, EngineEvent} {
			res[e] = runWithEngine(t, eng, arch.POWER7(), 1, 4, issueStreams(data), maxCycles)
			if res[e].err != "" {
				t.Fatalf("engine %d: %s after %d cycles", eng, res[e].err, res[e].wall)
			}
		}
		comparePair(t, res[0], res[1])
	})
}

// TestCutRunLeavesNoPhantomIssues runs a Dedup cut by its cycle limit and
// then a complete short Dedup on the same machine without Reset. The cut
// run leaves dispatched instructions in the port queues; the second run
// must issue exactly the instructions it retires, and none of those.
func TestCutRunLeavesNoPhantomIssues(t *testing.T) {
	full := librarySpec(t, "Dedup")
	short := *full
	short.TotalWork /= 64
	for _, seed := range []uint64{7, 8} {
		m := newP7(t, 1)
		threads := m.HardwareThreads()
		_, err := m.RunContext(context.Background(), instSources(t, full, threads, seed), 250_000)
		if !errors.Is(err, ErrCycleLimit) {
			t.Fatalf("seed %d: cut run err = %v, want ErrCycleLimit", seed, err)
		}
		before := m.Counters()
		if _, err := m.RunContext(context.Background(), instSources(t, &short, threads, seed), 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := m.Counters()
		d := after.Delta(&before)
		var issued uint64
		for _, n := range d.IssuedByPort {
			issued += n
		}
		if issued != d.Retired {
			t.Errorf("seed %d: second run issued %d instructions, retired %d", seed, issued, d.Retired)
		}
	}
}

// TestEntrySize pins the history-ring entry at 48 bytes, so a context's
// ring stays 24 KiB.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 48 {
		t.Fatalf("entry is %d bytes, want 48", n)
	}
}
