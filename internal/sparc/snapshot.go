package sparc

import (
	"sync"
	"sync/atomic"
)

// auditStride is how many recycles separate two rotating page audits.
// The audit exists to surface dirty-tracking bugs, which Reset's scrub
// shares with every other user of the bitmaps, so it can be spread over
// several recycles: each audit continues where the machine's last one
// stopped.
const auditStride = 8

// SnapshotPool recycles Machines across independent runs by rewinding
// them to power-on with Reset. A new machine is cheap (its page tables),
// but a recycled one also keeps what a fresh one would have to rebuild:
// the testbed kernel parked on it (Host) and the pages its runs stored
// to, which the rewind zeroes in place in O(pages the previous run
// dirtied) instead of allocating them again. The cheap power-on
// invariants (VerifyReset) run on every Get, one rotating-window residue
// scan (AuditPages) every auditStride recycles, and strict mode scans
// every allocated byte (VerifyClean) every time. A machine that fails
// verification — or comes back crashed — is discarded, together with
// whatever its Host holds, and replaced with a fresh allocation. The
// rotating audit bounds how long a page the dirty tracker missed could
// leak before surfacing as a discard; strict mode and the
// reset-isolation tests rule it out deterministically.
//
// The pool holds no snapshot. The name is held because the perfbench
// module, which changes only together with its benchmark, builds one.
//
// The free list is one LIFO stack under one mutex, so a worker usually
// gets back the cache-warm machine it just returned. The counters are
// atomics, read without the lock.
type SnapshotPool struct {
	cfg    Config
	strict bool
	max    int // idle machines retained (<= 0: unbounded)

	mu   sync.Mutex
	free []*Machine

	allocated atomic.Uint64
	reused    atomic.Uint64
	discarded atomic.Uint64
}

// NewSnapshotPool builds a pool recycling machines with the given
// layout. max bounds how many idle machines are retained (<= 0:
// unbounded, callers are a fixed worker set).
func NewSnapshotPool(cfg Config, max int) *SnapshotPool {
	return &SnapshotPool{cfg: cfg, max: max}
}

// SetStrict selects exhaustive VerifyClean scans on every recycle. This
// is orders of magnitude slower than the default invariant check; it
// exists for isolation tests and paranoid runs.
func (p *SnapshotPool) SetStrict(v bool) { p.strict = v }

// Get returns a machine in its power-on state: a rewound one when the
// reset-and-verify cycle succeeds, a fresh allocation otherwise.
func (p *SnapshotPool) Get() *Machine {
	if m := p.pop(); m != nil {
		m.Reset()
		err := m.VerifyReset()
		if err == nil {
			if p.strict {
				err = m.VerifyClean()
			} else if m.Resets()%auditStride == 0 {
				err = m.AuditPages(auditPagesPerGet)
			}
		}
		if err == nil {
			p.reused.Add(1)
			return m
		}
		p.discarded.Add(1)
	}
	p.allocated.Add(1)
	return NewMachine(p.cfg)
}

// pop takes the most recently returned machine off the free list, or
// returns nil when the list is empty.
func (p *SnapshotPool) pop() *Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	m := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return m
}

// Put hands a machine back for recycling. Crashed simulators are
// discarded — the contract of Crash is that the embedding harness must
// not trust them again — as is anything built with a different layout.
// A machine handed back while max idle machines are already pooled is
// dropped.
func (p *SnapshotPool) Put(m *Machine) {
	if m == nil {
		return
	}
	if crashed, _ := m.Crashed(); crashed || m.Config() != p.cfg {
		p.discarded.Add(1)
		return
	}
	p.mu.Lock()
	if p.max <= 0 || len(p.free) < p.max {
		p.free = append(p.free, m)
	}
	p.mu.Unlock()
}

// Stats snapshots the pool counters.
func (p *SnapshotPool) Stats() PoolStats {
	return PoolStats{
		Allocated: p.allocated.Load(),
		Reused:    p.reused.Load(),
		Discarded: p.discarded.Load(),
	}
}
