package cpu

import "repro/internal/mem"

// Stream prefetcher. Real POWER7 and Nehalem cores both ship aggressive
// hardware stream prefetchers, and they are essential to the paper's
// memory-system story: streaming workloads (STREAM, Swim, MG) are
// *bandwidth*-bound, not latency-bound — prefetching hides per-line latency
// while still consuming channel bandwidth, so adding SMT threads cannot
// speed them up but does degrade DRAM row locality. Without a prefetcher a
// simulator makes every strided workload latency-bound, which inverts the
// paper's results.
//
// The model: per core, a small table of detected streams (sequential
// cache-line miss patterns). Once a stream is confirmed, the next lines are
// fetched ahead of demand: lines found in L3 are pulled into L2 cheaply;
// lines missing everywhere are requested from DRAM (consuming bandwidth)
// and parked in a small in-flight buffer with their arrival time. A demand
// access that hits the in-flight buffer pays only the remaining latency.

const (
	pfStreams  = 8 // detected streams per core
	pfInflight = 24
	pfDepth    = 3 // lines fetched ahead of a confirmed stream
	pfConfirm  = 2 // sequential misses needed to confirm a stream
)

// pfStream is one detected miss stream.
type pfStream struct {
	lastLine uint64
	conf     int8
	valid    bool
}

// pfLine is one prefetched line still in flight from memory.
type pfLine struct {
	line    uint64
	readyAt int64
	valid   bool
	shared  bool
}

type prefetcher struct {
	streams  [pfStreams]pfStream
	streamRR int
	inflight [pfInflight]pfLine
	inflRR   int
	// live counts valid inflight entries, so lookup — on the hot path of
	// every L1 miss — skips the buffer scan entirely for workloads that
	// never train a stream (random or compute-bound access patterns).
	live int

	// Issued and Useful count prefetches sent and prefetched lines that
	// served a demand access.
	Issued, Useful uint64
}

func (p *prefetcher) reset() {
	*p = prefetcher{}
}

// lookup finds an in-flight prefetch for line, returning its buffer slot.
func (p *prefetcher) lookup(line uint64) int {
	if p.live == 0 {
		return -1
	}
	for i := range p.inflight {
		if p.inflight[i].valid && p.inflight[i].line == line {
			return i
		}
	}
	return -1
}

// drop invalidates an in-flight entry after a demand access consumed it.
func (p *prefetcher) drop(i int) {
	p.inflight[i].valid = false
	p.live--
}

// note records a demand L1 miss for stream detection and returns whether
// the line extends a confirmed stream (so the core should prefetch ahead).
func (p *prefetcher) note(line uint64) bool {
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		if line == s.lastLine+1 || line == s.lastLine {
			if line == s.lastLine+1 {
				s.lastLine = line
				if s.conf < 4 {
					s.conf++
				}
			}
			return s.conf >= pfConfirm
		}
	}
	// New candidate stream replaces the next slot round-robin.
	p.streams[p.streamRR] = pfStream{lastLine: line, conf: 1, valid: true}
	p.streamRR = (p.streamRR + 1) % pfStreams
	return false
}

// park records an in-flight prefetched line.
func (p *prefetcher) park(line uint64, readyAt int64, shared bool) {
	if !p.inflight[p.inflRR].valid {
		p.live++
	}
	p.inflight[p.inflRR] = pfLine{line: line, readyAt: readyAt, valid: true, shared: shared}
	p.inflRR = (p.inflRR + 1) % pfInflight
	p.Issued++
}

// lineOf maps an address to its cache-line index.
func lineOf(addr uint64, lineSize int) uint64 {
	return addr / uint64(lineSize)
}

// prefetchAhead issues prefetches for the lines following line on a
// confirmed stream.
func (c *Core) prefetchAhead(line uint64, shared bool, now int64) {
	lineSize := uint64(c.arch.Mem.LineSize)
	for k := uint64(1); k <= pfDepth; k++ {
		target := line + k
		addr := target * lineSize
		if c.pf.lookup(target) >= 0 {
			continue
		}
		if c.l1.Contains(addr) || c.l2.Contains(addr) {
			continue
		}
		if c.chip.l3.Lookup(addr) {
			// L3 hit: pull into the private hierarchy immediately; the
			// latency is far below the stream's reuse distance.
			c.l2.Insert(addr)
			continue
		}
		// Fetch from memory, consuming channel bandwidth.
		home, penalty := c.homeChannel(addr, shared)
		ready := now + int64(c.arch.Mem.L3Lat+home.Access(now, addr)+penalty)
		c.chip.l3.Insert(addr)
		c.pf.park(target, ready, shared)
	}
}

// homeChannel resolves which chip's DRAM serves addr and any cross-chip
// penalty (see accessMem). Shared addresses interleave over every chip of
// the machine.
func (c *Core) homeChannel(addr uint64, shared bool) (*mem.DRAM, int) {
	chips := c.chip.machine.chips
	if shared && len(chips) > 1 {
		h := int((addr >> dramHomeShift) % uint64(len(chips)))
		if ch := chips[h]; ch != c.chip {
			return ch.dram, c.chip.machine.numaPenalty
		}
	}
	return c.chip.dram, 0
}
