package cpu

import (
	"sync"

	"repro/internal/arch"
)

// PoolKey identifies interchangeable machines: the architecture name and
// the chip count. Architecture descriptions are compared by Name — every
// Desc constructor in this codebase returns an identical description for a
// given name, so two machines with equal keys simulate identically.
type PoolKey struct {
	Arch  string
	Chips int
}

// PoolStats counts pool traffic, for observability endpoints.
type PoolStats struct {
	// Hits and Misses count Gets served from the pool vs. built fresh.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts and Drops count machines returned and machines discarded
	// because their shelf was full.
	Puts  uint64 `json:"puts"`
	Drops uint64 `json:"drops"`
	// Idle is the number of machines currently parked.
	Idle int `json:"idle"`
}

// Pool reuses Machines across runs so hot serving paths (smtservd's
// /v1/analyze, the experiment matrix) stop paying NewMachine — cache
// arrays, history rings and port queues are multi-megabyte allocations —
// on every probe.
//
// A machine obtained from Get is indistinguishable from a freshly
// constructed one: Reset clears all microarchitectural state, counters and
// the clock, and the SMT level and engine are restored to their
// construction defaults. TestPoolIdentity pins this.
//
// The zero Pool is not usable; build one with NewPool. A nil *Pool is: its
// Get builds a fresh machine and its Put drops the machine, so a caller
// holding an optional pool needs no pooled-or-fresh branch. All methods are
// safe for concurrent use.
type Pool struct {
	mu        sync.Mutex
	idle      map[PoolKey][]*Machine
	maxPerKey int
	hits      uint64
	misses    uint64
	puts      uint64
	drops     uint64
	idleCount int
}

// NewPool builds a machine pool parking at most maxPerKey machines per
// (arch, chips) key; maxPerKey <= 0 selects the default of 8.
func NewPool(maxPerKey int) *Pool {
	if maxPerKey <= 0 {
		maxPerKey = 8
	}
	return &Pool{idle: map[PoolKey][]*Machine{}, maxPerKey: maxPerKey}
}

// Get returns a machine for the given architecture and chip count, reusing
// a parked one when available. The machine is in freshly-constructed state:
// cold caches, zeroed counters and clock, the architecture's maximum SMT
// level, and the default engine. A nil Pool builds every machine fresh.
func (p *Pool) Get(d *arch.Desc, chips int) (*Machine, error) {
	if p == nil {
		return NewMachine(d, chips)
	}
	key := PoolKey{Arch: d.Name, Chips: chips}
	p.mu.Lock()
	shelf := p.idle[key]
	if n := len(shelf); n > 0 {
		m := shelf[n-1]
		shelf[n-1] = nil
		p.idle[key] = shelf[:n-1]
		p.hits++
		p.idleCount--
		p.mu.Unlock()
		m.Reset()
		m.engine = EngineEvent
		if err := m.SetSMTLevel(m.desc.MaxSMT); err != nil {
			// Cannot happen for a machine that validated at construction;
			// fall through to a fresh build if it somehow does.
			return NewMachine(d, chips)
		}
		return m, nil
	}
	p.misses++
	p.mu.Unlock()
	return NewMachine(d, chips)
}

// Put parks a machine for reuse. Machines whose key shelf is full are
// dropped for the garbage collector. Put accepts machines in any state —
// the scrub to fresh state happens in Get.
func (p *Pool) Put(m *Machine) {
	if p == nil || m == nil || m.running {
		return
	}
	key := PoolKey{Arch: m.desc.Name, Chips: len(m.chips)}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[key]) >= p.maxPerKey {
		p.drops++
		return
	}
	p.idle[key] = append(p.idle[key], m)
	p.puts++
	p.idleCount++
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Hits:   p.hits,
		Misses: p.misses,
		Puts:   p.puts,
		Drops:  p.drops,
		Idle:   p.idleCount,
	}
}
