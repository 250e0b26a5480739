package sparc

import (
	"sync"
	"sync/atomic"
)

// maxStripes caps the free-list striping of a pool. Eight stripes cover
// the worker counts campaigns actually run with; beyond that the stripes
// only dilute reuse.
const maxStripes = 8

// machineShards is the striped free list behind SnapshotPool. A single
// mutex-guarded slice serialises every Get and Put of an 8-worker
// campaign on one cache line; striping spreads the traffic so workers
// mostly lock disjoint stripes (see BenchmarkPoolContention). Round-robin
// cursors give each operation a home stripe and fall through to the
// others, so no machine strands in a stripe nobody polls: Get steals
// from any stripe once its own is empty, Put overflows to any stripe
// with room.
type machineShards struct {
	stripes []machineStripe
	getC    atomic.Uint64
	putC    atomic.Uint64
	// steals counts Gets served from a stripe other than the caller's
	// round-robin home — the cross-stripe traffic the striping exists to
	// keep rare (observable as xm_pool_steals_total).
	steals atomic.Uint64
}

// machineStripe is one free-list stripe, padded so neighbouring stripes
// do not share a cache line (the point of striping is to stop the
// workers' lock traffic colliding).
type machineStripe struct {
	mu   sync.Mutex
	free []*Machine
	max  int // idle machines retained in this stripe (<= 0: unbounded)
	_    [4]uint64
}

// newMachineShards builds a striped free list retaining about max idle
// machines in total (<= 0: unbounded), striped for max-many concurrent
// callers. The retained total may exceed max by up to stripes-1 — the
// per-stripe caps round up — which only means a recycled machine is
// kept where it would have been discarded.
func newMachineShards(max int) *machineShards {
	n := max
	if n <= 0 || n > maxStripes {
		n = maxStripes
	}
	return newMachineShardsN(max, n)
}

// newMachineShardsN is newMachineShards with an explicit stripe count —
// the benchmark's A/B knob (n=1 is the historical single-mutex list).
func newMachineShardsN(max, n int) *machineShards {
	if n < 1 {
		n = 1
	}
	s := &machineShards{stripes: make([]machineStripe, n)}
	if max > 0 {
		per := (max + n - 1) / n
		for i := range s.stripes {
			s.stripes[i].max = per
		}
	}
	return s
}

// get pops a machine, starting at the caller's round-robin home stripe
// and stealing from the rest, or returns nil when every stripe is empty.
func (s *machineShards) get() *Machine {
	n := len(s.stripes)
	start := int(s.getC.Add(1)) % n
	for k := 0; k < n; k++ {
		st := &s.stripes[(start+k)%n]
		st.mu.Lock()
		if l := len(st.free); l > 0 {
			m := st.free[l-1]
			st.free[l-1] = nil
			st.free = st.free[:l-1]
			st.mu.Unlock()
			if k > 0 {
				s.steals.Add(1)
			}
			return m
		}
		st.mu.Unlock()
	}
	return nil
}

// put hands a machine back, overflowing past full stripes; it reports
// whether any stripe had room.
func (s *machineShards) put(m *Machine) bool {
	n := len(s.stripes)
	start := int(s.putC.Add(1)) % n
	for k := 0; k < n; k++ {
		st := &s.stripes[(start+k)%n]
		st.mu.Lock()
		if st.max <= 0 || len(st.free) < st.max {
			st.free = append(st.free, m)
			st.mu.Unlock()
			return true
		}
		st.mu.Unlock()
	}
	return false
}

// poolCounters is the lock-free pool bookkeeping: the stats were the one
// piece of state every Get and Put still serialised on after the free
// list was striped.
type poolCounters struct {
	allocated atomic.Uint64
	reused    atomic.Uint64
	discarded atomic.Uint64
}

// snapshot reads the counters into the exported stats shape.
func (c *poolCounters) snapshot() PoolStats {
	return PoolStats{
		Allocated: c.allocated.Load(),
		Reused:    c.reused.Load(),
		Discarded: c.discarded.Load(),
	}
}
