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
	// Steals counts Gets served from a free-list stripe other than the
	// caller's round-robin home — cross-stripe traffic that measures how
	// well the striping spreads the workers.
	Steals uint64
}

// auditPagesPerGet is the window of one rotating page audit: 8 pages
// (32 KiB) keeps the audit in the noise of a single test's cost while
// sweeping a default RAM bank about every 512 audits.
const auditPagesPerGet = 8
