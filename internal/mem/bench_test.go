package mem

import (
	"testing"

	"repro/internal/xrand"
)

func BenchmarkCacheAccessHit(b *testing.B) {
	c := NewCache(32<<10, 8, 128)
	c.Access(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0)
	}
}

func BenchmarkCacheAccessRandom(b *testing.B) {
	c := NewCache(32<<10, 8, 128)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(rng.Uint64n(1 << 24))
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := NewDRAM(230, 4)
	addr := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(int64(i*4), addr)
		addr += 128
	}
}

func BenchmarkPathAccess(b *testing.B) {
	p := &Path{
		L1:    NewCache(32<<10, 8, 128),
		L2:    NewCache(256<<10, 8, 128),
		L3:    NewCache(4<<20, 16, 128),
		Mem:   NewDRAM(230, 4),
		L1Lat: 2, L2Lat: 8, L3Lat: 27,
	}
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(rng.Uint64n(1<<20), int64(i))
	}
}
