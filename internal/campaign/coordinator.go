package campaign

// This file is the lease coordinator of campaign execution: it carves
// the campaign's position space [0, Len) lazily into leases —
// contiguous runs of pending positions — and counts each one out and
// back in. A lease cannot outlive its holder: an engine worker is a
// goroutine of the campaign process and a target executes a lease
// synchronously, so the one failure a lease meets in flight, a remote
// worker dying, is healed inside the remote client while the engine
// worker still holds the lease. A position that never executes (a
// cancelled or stopped campaign) has no shard record and runs on
// resume. Because every plan is deterministic and
// index-addressable, a re-executed position produces a byte-identical
// record, and the seq-dedup of CollectShardsIn keeps the merged log
// byte-identical to a single-process run.

import (
	"sync"
	"time"

	"xmrobust/internal/obs"
)

// Lease is one issued work unit: a run of campaign positions to execute.
type Lease struct {
	ID  uint64
	Pos []int
}

// Coordinator hands out leases over the pending positions of a campaign.
// It is safe for concurrent use.
type Coordinator struct {
	mu sync.Mutex

	total int
	done  map[int]bool
	batch int
	limit int // max positions to issue (0: no limit)

	cursor      int    // next unexamined position
	fresh       int    // positions issued so far
	nextID      uint64 // next lease ID
	outstanding map[uint64]Lease
	closed      bool

	// met and trace are the observability hooks (nil when obs is off —
	// every emission is one nil check).
	met   *obs.LeaseMetrics
	trace *obs.Tracer
}

// NewCoordinator builds a coordinator over positions [0, total), skipping
// the done set (positions a checkpoint already completed), carving leases
// of at most batch positions, and issuing at most limit positions (0: all
// pending). The trailing duration is ignored; it is kept for callers
// written against the five-parameter form.
func NewCoordinator(total int, done map[int]bool, batch, limit int, _ time.Duration) *Coordinator {
	if batch < 1 {
		batch = 1
	}
	return &Coordinator{
		total:       total,
		done:        done,
		batch:       batch,
		limit:       limit,
		nextID:      1,
		outstanding: map[uint64]Lease{},
	}
}

// Instrument attaches lease metrics and a trace stream; either may be
// nil. Call before the first Next — the hooks are read without the
// coordinator's lock held against writes.
func (c *Coordinator) Instrument(m *obs.LeaseMetrics, tr *obs.Tracer) {
	c.met = m
	c.trace = tr
}

// carve builds the next lease under the lock, or returns false when the
// position space (or the issue limit) is exhausted.
func (c *Coordinator) carve() (Lease, bool) {
	if c.limit > 0 && c.fresh >= c.limit {
		return Lease{}, false
	}
	var pos []int
	for c.cursor < c.total && len(pos) < c.batch {
		if c.limit > 0 && c.fresh+len(pos) >= c.limit {
			break
		}
		if !c.done[c.cursor] {
			pos = append(pos, c.cursor)
		}
		c.cursor++
	}
	if len(pos) == 0 {
		return Lease{}, false
	}
	c.fresh += len(pos)
	return Lease{Pos: pos}, true
}

// Next returns the next lease to execute. It returns ok=false once every
// pending position has been issued, the limit is reached or Close has
// run.
func (c *Coordinator) Next() (Lease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Lease{}, false
	}
	l, ok := c.carve()
	if !ok {
		return Lease{}, false
	}
	l.ID = c.nextID
	c.nextID++
	c.outstanding[l.ID] = l
	c.met.OnIssue()
	c.trace.Emit(obs.Event{Kind: "lease.issue", Lease: l.ID, Start: l.Pos[0], N: len(l.Pos)})
	return l, true
}

// Complete retires a lease: its holder executed it, or skipped it on a
// stop. Completing an unknown (or already completed) ID is a no-op.
func (c *Coordinator) Complete(id uint64) {
	c.mu.Lock()
	if l, ok := c.outstanding[id]; ok {
		delete(c.outstanding, id)
		c.met.OnComplete()
		c.trace.Emit(obs.Event{Kind: "lease.complete", Lease: id, Start: l.Pos[0], N: len(l.Pos)})
	}
	c.mu.Unlock()
}

// Close stops the issue of leases: every later Next returns ok=false.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}
