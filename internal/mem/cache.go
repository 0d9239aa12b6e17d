// Package mem implements the simulated memory hierarchy: set-associative
// LRU caches and a finite-bandwidth DRAM channel. The hierarchy layout
// (per-core L1D and L2, chip-shared L3, machine-shared DRAM) is assembled by
// the CPU simulator; this package provides the building blocks and the
// combined lookup path.
//
// Only data-side accesses are modelled. The caches are behavioural: they
// track which lines are resident and produce latencies, but hold no data.
package mem

import (
	"fmt"

	"repro/internal/xrand"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

const (
	// LevelL1 is a first-level hit.
	LevelL1 Level = iota
	// LevelL2 is a second-level hit.
	LevelL2
	// LevelL3 is a last-level-cache hit.
	LevelL3
	// LevelMem is a miss to DRAM.
	LevelMem
	// NumLevels counts the levels above.
	NumLevels
)

// String returns the conventional level name.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Cache is one set-associative cache with LRU replacement. It is not safe
// for concurrent use; a simulation run is single-goroutine by design.
type Cache struct {
	ways     int
	lineBits uint
	setMask  uint64
	// tags holds sets*ways entries, set-major. A zero entry means invalid:
	// real tags always have bit 63 set by the hierarchy (addresses are
	// offset), so zero never collides with a valid tag.
	tags []uint64

	// Hits and Misses count lookups by outcome.
	Hits, Misses uint64
}

// NewCache builds a cache of the given total size in bytes, associativity
// and line size. Size must yield a power-of-two set count.
func NewCache(size, ways, lineSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic("mem: non-positive cache geometry")
	}
	sets := size / (lineSize * ways)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: set count %d not a positive power of two", sets))
	}
	lb := uint(0)
	for 1<<lb < lineSize {
		lb++
	}
	return &Cache{
		ways:     ways,
		lineBits: lb,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.tags) / c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// lineTag converts an address to a tag with the valid bit forced on.
func (c *Cache) lineTag(addr uint64) uint64 {
	return (addr >> c.lineBits) | 1<<63
}

// Lookup probes the cache for addr without modifying counters and, on hit,
// refreshes the line's LRU position. It returns whether the line was
// resident. Use Access for the counted path.
func (c *Cache) Lookup(addr uint64) bool {
	tag := c.lineTag(addr)
	set := int((addr >> c.lineBits) & c.setMask)
	base := set * c.ways
	w := c.tags[base : base+c.ways : base+c.ways]
	for i, t := range w {
		if t == tag {
			// Move to front: slots to the left are more recent.
			copy(w[1:i+1], w[:i])
			w[0] = tag
			return true
		}
	}
	return false
}

// Insert places addr's line in the cache, evicting the LRU way if needed,
// and returns the evicted line's tag (0 if the victim way was invalid).
func (c *Cache) Insert(addr uint64) uint64 {
	tag := c.lineTag(addr)
	set := int((addr >> c.lineBits) & c.setMask)
	base := set * c.ways
	w := c.tags[base : base+c.ways : base+c.ways]
	victim := w[c.ways-1]
	copy(w[1:], w[:c.ways-1])
	w[0] = tag
	return victim
}

// Access probes for addr, counts the outcome, and inserts the line on a
// miss. It returns whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	if c.Lookup(addr) {
		c.Hits++
		return true
	}
	c.Misses++
	c.Insert(addr)
	return false
}

// Contains probes for addr without updating LRU order or counters.
func (c *Cache) Contains(addr uint64) bool {
	tag := c.lineTag(addr)
	set := int((addr >> c.lineBits) & c.setMask)
	base := set * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Reset invalidates all lines and zeroes the counters.
func (c *Cache) Reset() {
	clear(c.tags)
	c.Hits = 0
	c.Misses = 0
}

// DRAM models a shared memory channel with a base latency, a finite
// bandwidth, and a banked row-buffer. A line transfer costs CyclesPerLine
// channel cycles when it hits the open row of its bank and RowMissFactor
// times that when it opens a new row. Misses that arrive faster than the
// channel drains queue behind each other, and the queueing delay is
// uncapped.
//
// The row-buffer model is what makes bandwidth-bound workloads degrade at
// higher SMT levels without any hard-coded penalty: more concurrent access
// streams interleave at the channel, each stream's next line less often
// finds its row still open, so effective bandwidth drops — the paper's
// "intensive use of the memory system" contention case.
type DRAM struct {
	// BaseLat is the unloaded access latency in cycles.
	BaseLat int
	// CyclesPerLine is the row-hit reciprocal bandwidth.
	CyclesPerLine int
	// RowMissFactor multiplies the transfer cost when a new row opens.
	RowMissFactor int

	nextFree int64
	// openRow holds the currently open row per bank (0 = none; rows are
	// tagged with a high bit so 0 never collides).
	openRow [dramBanks]uint64

	// Lines counts lines transferred; RowMissLines the subset that opened
	// a new row; StallCycles accumulates the total queueing delay imposed.
	Lines, RowMissLines uint64
	StallCycles         uint64
}

const (
	dramBanks    = 16
	dramRowShift = 12 // 4 KiB rows
)

// NewDRAM builds a channel with the given parameters.
func NewDRAM(baseLat, cyclesPerLine int) *DRAM {
	if baseLat <= 0 || cyclesPerLine <= 0 {
		panic("mem: non-positive DRAM parameters")
	}
	return &DRAM{BaseLat: baseLat, CyclesPerLine: cyclesPerLine, RowMissFactor: 3}
}

// Access reserves a transfer slot for addr's line at cycle now and returns
// the total latency (base latency plus queueing delay) the access observes.
func (d *DRAM) Access(now int64, addr uint64) int {
	row := addr >> dramRowShift
	// Bank selection hashes the row id, as memory controllers do, so that
	// concurrent streams spread over the banks regardless of their
	// origins' alignment.
	bank := int(xrand.Mix64(row) & (dramBanks - 1))
	rowTag := row | 1<<63
	cost := int64(d.CyclesPerLine)
	if d.openRow[bank] != rowTag {
		d.openRow[bank] = rowTag
		cost *= int64(d.RowMissFactor)
		d.RowMissLines++
	}

	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	// The reservation always advances by the full transfer cost and the
	// access observes the full queueing delay: bandwidth is hard, and
	// under saturation latency grows until the cores' finite reorder
	// windows throttle the arrival rate down to the service rate — the
	// classic memory-wall equilibrium.
	d.nextFree = start + cost
	queue := start - now
	d.StallCycles += uint64(queue)
	d.Lines++
	return d.BaseLat + int(queue)
}

// Reset clears channel state and counters.
func (d *DRAM) Reset() {
	d.nextFree = 0
	clear(d.openRow[:])
	d.Lines = 0
	d.RowMissLines = 0
	d.StallCycles = 0
}

// Path is the cache lookup path seen by one core: its private L1 and L2,
// the chip's shared L3, and the machine's DRAM channel. L3 and DRAM are
// shared pointers across the cores of a chip/machine.
type Path struct {
	L1, L2, L3 *Cache
	Mem        *DRAM

	L1Lat, L2Lat, L3Lat int
}

// Access walks the hierarchy for addr at cycle now and returns the load-use
// latency and the level that satisfied the access. Lines are allocated into
// every level on the way back (inclusive-ish fill, which is what matters for
// hit-rate behaviour).
func (p *Path) Access(addr uint64, now int64) (lat int, level Level) {
	if p.L1.Access(addr) {
		return p.L1Lat, LevelL1
	}
	if p.L2.Access(addr) {
		p.L1.Insert(addr)
		return p.L2Lat, LevelL2
	}
	if p.L3.Access(addr) {
		p.L2.Insert(addr)
		p.L1.Insert(addr)
		return p.L3Lat, LevelL3
	}
	p.L2.Insert(addr)
	p.L1.Insert(addr)
	return p.L3Lat + p.Mem.Access(now, addr), LevelMem
}
