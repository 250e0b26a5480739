package sparc

// PoolStats counts what a SnapshotPool did over its lifetime.
type PoolStats struct {
	// Allocated is the number of machines built from scratch.
	Allocated uint64
	// Reused is the number of Gets served by recycling a pooled machine.
	Reused uint64
	// Discarded counts machines the pool refused to recycle: crashed
	// simulators handed back via Put, and machines that failed the
	// post-reset verification.
	Discarded uint64
	// Steals is always 0: the pool keeps one free list, so no Get is
	// served from another's. The field stays because the perfbench
	// module, which changes only together with its benchmark, sums it.
	Steals uint64
}

// auditPagesPerGet is the window of one rotating page audit: 8 pages
// (32 KiB) keeps the audit in the noise of a single test's cost. The
// window rotates over the pages a machine has allocated, so a machine
// running the paper's tests (4–6 pages stored to per test, 9 across the
// whole campaign) is swept every audit or two.
const auditPagesPerGet = 8
