// Package xrand provides small, fast, deterministic pseudo-random number
// generators for the simulator. Every source of randomness in a simulation
// run flows through an explicitly seeded generator from this package, so a
// run is exactly repeatable given its seed. The generators are based on
// SplitMix64 (for seeding and cheap streams) and xoshiro256**, which have
// excellent statistical quality for simulation purposes and compile to a
// handful of instructions.
//
// The package deliberately does not satisfy math/rand.Source: the simulator's
// hot loops call the concrete methods directly so they can be inlined.
package xrand

import "math"

// SplitMix64 is a tiny 64-bit generator. It is primarily used to expand a
// single user seed into independent stream seeds, but is also good enough to
// be used directly for workload generation.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through the SplitMix64 finalizer. It is useful for deriving
// independent seeds from structured identifiers (e.g. thread IDs).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString hashes a name to a stable 64-bit stream identifier (FNV-1a).
// Combined with Mix64 it derives independent deterministic seeds per named
// entity — the per-cell seed derivation of the experiment engine: workload
// streams are seeded from (user seed, HashString(benchmark), thread index)
// and from nothing else, which is what makes sweep artifacts bit-identical
// under any goroutine schedule.
//
// The offset basis is this repository's historical constant (it predates
// this package and is baked into every recorded trace and golden artifact);
// it intentionally differs from the textbook FNV basis and must never
// change.
func HashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashBytes is HashString over a byte slice: the same FNV-1a with the same
// historical offset basis, for callers that build canonical binary keys
// (e.g. counter-snapshot fingerprints) without converting to string.
func HashBytes(b []byte) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// Rand is the simulator's general-purpose generator (xoshiro256**).
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a Rand seeded from seed via SplitMix64, per the xoshiro
// authors' recommendation. A zero seed is valid.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{s0: sm.Next(), s1: sm.Next(), s2: sm.Next(), s3: sm.Next()}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** sequence.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold returns the integer threshold k at which r.Below(k) answers
// exactly as r.Float64() < p does, on the same draw. Float64 is
// (Uint64()>>11)/2^53, and for an integer x, x/2^53 < p holds exactly when
// x < ceil(p·2^53); scaling p by 2^53 is exact, so no rounding enters. A p
// of at most 0 (or NaN) gives 0, which no draw is below, and a p of at
// least 1 gives 2^53, which every draw is below.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below consumes one draw and reports whether its top 53 bits are below
// k: with k = Threshold(p), the integer form of Float64() < p.
func (r *Rand) Below(k uint64) bool {
	return r.Uint64()>>11 < k
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Classic modulo with rejection to remove bias.
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed sample with the given mean,
// computed by inverse transform. Mean <= 0 returns 0.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	return -mean * math.Log1p(-u)
}
