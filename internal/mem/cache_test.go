package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestCacheGeometry(t *testing.T) {
	c := NewCache(32<<10, 8, 128)
	if got := c.Sets(); got != 32 {
		t.Fatalf("sets = %d, want 32", got)
	}
	if got := c.Ways(); got != 8 {
		t.Fatalf("ways = %d, want 8", got)
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	for _, g := range [][3]int{{0, 8, 64}, {32 << 10, 0, 64}, {48 << 10, 7, 64}} {
		func() {
			defer func() { recover() }()
			NewCache(g[0], g[1], g[2])
			t.Fatalf("geometry %v did not panic", g)
		}()
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(4<<10, 4, 64)
	if c.Access(0x1000) {
		t.Fatal("first access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1020) {
		t.Fatal("same-line access missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache, 64B lines, 2 sets (256B total).
	c := NewCache(256, 2, 64)
	set0 := func(i uint64) uint64 { return i * 128 } // all map to set 0
	c.Access(set0(0))
	c.Access(set0(1))
	c.Access(set0(0)) // refresh 0: LRU is now 1
	c.Access(set0(2)) // evicts 1
	if !c.Contains(set0(0)) {
		t.Fatal("line 0 (MRU) was evicted")
	}
	if c.Contains(set0(1)) {
		t.Fatal("line 1 (LRU) survived eviction")
	}
	if !c.Contains(set0(2)) {
		t.Fatal("just-inserted line 2 missing")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := NewCache(32<<10, 8, 64)
	rng := xrand.New(1)
	// Touch a 16 KiB working set twice; second pass must be ~all hits.
	for pass := 0; pass < 2; pass++ {
		c.Hits, c.Misses = 0, 0
		for i := 0; i < 10_000; i++ {
			c.Access(rng.Uint64n(16 << 10))
		}
	}
	if miss := float64(c.Misses) / float64(c.Hits+c.Misses); miss > 0.01 {
		t.Fatalf("second-pass miss rate %.3f for a fitting working set", miss)
	}
}

func TestCacheWorkingSetThrashes(t *testing.T) {
	c := NewCache(32<<10, 8, 64)
	rng := xrand.New(2)
	for pass := 0; pass < 2; pass++ {
		c.Hits, c.Misses = 0, 0
		for i := 0; i < 50_000; i++ {
			c.Access(rng.Uint64n(4 << 20))
		}
	}
	if miss := float64(c.Misses) / float64(c.Hits+c.Misses); miss < 0.9 {
		t.Fatalf("miss rate %.3f for a 4 MiB set in a 32 KiB cache, want >0.9", miss)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(4<<10, 4, 64)
	c.Access(0x40)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("counters not cleared")
	}
	if c.Contains(0x40) {
		t.Fatal("line survived reset")
	}
}

func TestCacheInsertReturnsVictim(t *testing.T) {
	c := NewCache(128, 2, 64) // 1 set, 2 ways
	if v := c.Insert(0); v != 0 {
		t.Fatalf("victim of cold insert = %#x, want 0", v)
	}
	c.Insert(64)
	if v := c.Insert(128); v == 0 {
		t.Fatal("full-set insert returned no victim")
	}
}

// Property: after Access(a), Contains(a) always holds.
func TestCacheAccessInsertsProperty(t *testing.T) {
	c := NewCache(8<<10, 4, 64)
	if err := quick.Check(func(addr uint64) bool {
		addr &= 1<<40 - 1
		c.Access(addr)
		return c.Contains(addr)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits+misses equals accesses.
func TestCacheCounterBalance(t *testing.T) {
	c := NewCache(8<<10, 4, 64)
	rng := xrand.New(3)
	const n = 10_000
	for i := 0; i < n; i++ {
		c.Access(rng.Uint64n(64 << 10))
	}
	if c.Hits+c.Misses != n {
		t.Fatalf("hits+misses = %d, want %d", c.Hits+c.Misses, n)
	}
}

func TestDRAMUnloadedLatency(t *testing.T) {
	d := NewDRAM(200, 4)
	if lat := d.Access(0, 0); lat != 200 {
		t.Fatalf("first access latency %d, want 200 (no queue)", lat)
	}
}

func TestDRAMQueueing(t *testing.T) {
	d := NewDRAM(200, 4)
	// Same-row accesses issued in the same cycle queue at 4 cycles/line
	// after the first (which opens the row at 3x cost).
	d.Access(0, 0)
	lat2 := d.Access(0, 64)
	if lat2 <= 200 {
		t.Fatalf("second same-cycle access latency %d, want queueing above 200", lat2)
	}
}

func TestDRAMRowLocality(t *testing.T) {
	d := NewDRAM(200, 4)
	// Sequential lines within one 4 KiB row: only the first line should
	// open a row.
	for i := uint64(0); i < 32; i++ {
		d.Access(int64(i*1000), i*128)
	}
	if d.RowMissLines != 1 {
		t.Fatalf("row misses = %d for one sequential row, want 1", d.RowMissLines)
	}
	// Now jump across rows every access.
	d.Reset()
	for i := uint64(0); i < 32; i++ {
		d.Access(int64(i*1000), i*(4096*dramBanks)) // same bank, new row each time
	}
	if d.RowMissLines != 32 {
		t.Fatalf("row misses = %d for row-thrashing pattern, want 32", d.RowMissLines)
	}
}

func TestDRAMInterleavedStreamsLoseRowLocality(t *testing.T) {
	// The mechanism behind SMT-degrading bandwidth workloads: interleaving
	// more sequential streams produces more row misses per line.
	missRate := func(streams int) float64 {
		d := NewDRAM(200, 4)
		cursors := make([]uint64, streams)
		for s := range cursors {
			// Spread stream origins across banks, far enough apart that
			// no two streams share rows.
			cursors[s] = uint64(s) * (1 << 22)
		}
		now := int64(0)
		for i := 0; i < 8192; i++ {
			s := i % streams
			d.Access(now, cursors[s])
			cursors[s] += 128
			now += 4
		}
		return float64(d.RowMissLines) / float64(d.Lines)
	}
	few := missRate(4)   // fewer streams than banks: mostly row hits
	many := missRate(64) // far more streams than banks: row thrashing
	if many <= few*2 {
		t.Fatalf("row-miss rate with 64 streams (%.3f) not well above 4 streams (%.3f)", many, few)
	}
}

func TestDRAMReset(t *testing.T) {
	d := NewDRAM(100, 4)
	d.Access(0, 0)
	d.Reset()
	if d.Lines != 0 || d.StallCycles != 0 || d.RowMissLines != 0 {
		t.Fatal("counters survived reset")
	}
	if lat := d.Access(0, 0); lat != 100 {
		t.Fatalf("post-reset latency %d, want 100", lat)
	}
}

func TestPathLevels(t *testing.T) {
	p := &Path{
		L1:    NewCache(1<<10, 2, 64),
		L2:    NewCache(8<<10, 4, 64),
		L3:    NewCache(64<<10, 8, 64),
		Mem:   NewDRAM(200, 4),
		L1Lat: 2, L2Lat: 8, L3Lat: 30,
	}
	lat, lvl := p.Access(0x4000, 0)
	if lvl != LevelMem || lat < 200 {
		t.Fatalf("cold access: level %v lat %d", lvl, lat)
	}
	lat, lvl = p.Access(0x4000, 100)
	if lvl != LevelL1 || lat != 2 {
		t.Fatalf("warm access: level %v lat %d", lvl, lat)
	}
}

func TestLevelString(t *testing.T) {
	names := map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelL3: "L3", LevelMem: "mem"}
	for l, want := range names {
		if l.String() != want {
			t.Fatalf("Level(%d).String() = %q, want %q", l, l.String(), want)
		}
	}
}
