package sparc

// auditStride is how many recycles separate two rotating page audits.
// The audit exists to surface dirty-tracking bugs, which Reset's scrub
// shares with every other user of the bitmaps, so it can be spread over
// several recycles.
const auditStride = 8

// SnapshotPool recycles Machines across independent runs by rewinding
// them to power-on with Reset. A campaign that boots one simulated
// target per test would spend most of its allocation budget on the
// memory banks; the pool keeps them alive, and the rewind costs
// O(pages the previous run dirtied). The cheap power-on invariants
// (VerifyReset) run on every Get, one rotating-window residue scan
// (AuditPages) every auditStride recycles, and strict mode scans every
// byte (VerifyClean) every time. A machine that fails verification — or
// comes back crashed — is discarded, together with whatever its Host
// holds, and replaced with a fresh allocation. The rotating audit bounds
// how long a page the dirty tracker missed could leak before surfacing
// as a discard; strict mode and the reset-isolation tests rule it out
// deterministically.
//
// The pool holds no snapshot. The name is held because the perfbench
// module, which changes only together with its benchmark, builds one.
//
// The free list is striped and the counters are atomic, so concurrent
// workers contend on disjoint stripes instead of one mutex (see
// machineShards and BenchmarkPoolContention).
type SnapshotPool struct {
	cfg    Config
	strict bool
	free   *machineShards
	stats  poolCounters
}

// NewSnapshotPool builds a pool recycling machines with the given
// layout. max bounds how many idle machines are retained (<= 0:
// unbounded, callers are a fixed worker set).
func NewSnapshotPool(cfg Config, max int) *SnapshotPool {
	return newSnapshotPoolStripes(cfg, max, 0)
}

// newSnapshotPoolStripes is NewSnapshotPool with an explicit free-list
// stripe count (0: size from max) — the contention benchmark's A/B knob.
func newSnapshotPoolStripes(cfg Config, max, stripes int) *SnapshotPool {
	free := newMachineShards(max)
	if stripes > 0 {
		free = newMachineShardsN(max, stripes)
	}
	return &SnapshotPool{cfg: cfg, free: free}
}

// SetStrict selects exhaustive VerifyClean scans on every recycle. This
// is orders of magnitude slower than the default invariant check; it
// exists for isolation tests and paranoid runs.
func (p *SnapshotPool) SetStrict(v bool) { p.strict = v }

// Get returns a machine in its power-on state: a rewound one when the
// reset-and-verify cycle succeeds, a fresh allocation otherwise.
func (p *SnapshotPool) Get() *Machine {
	if m := p.free.get(); m != nil {
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
			p.stats.reused.Add(1)
			return m
		}
		p.stats.discarded.Add(1)
	}
	p.stats.allocated.Add(1)
	return NewMachine(p.cfg)
}

// Put hands a machine back for recycling. Crashed simulators are
// discarded — the contract of Crash is that the embedding harness must
// not trust them again — as is anything built with a different layout.
func (p *SnapshotPool) Put(m *Machine) {
	if m == nil {
		return
	}
	if crashed, _ := m.Crashed(); crashed || m.Config() != p.cfg {
		p.stats.discarded.Add(1)
		return
	}
	p.free.put(m)
}

// Stats snapshots the pool counters.
func (p *SnapshotPool) Stats() PoolStats {
	st := p.stats.snapshot()
	st.Steals = p.free.steals.Load()
	return st
}
