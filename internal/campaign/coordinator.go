package campaign

// This file is the plan-shard coordinator of distributed campaign
// execution: it partitions the campaign's position space [0, Len) into
// leases — contiguous runs of pending positions — and tracks each
// issued lease against a deadline. A lease whose holder disappears (a
// killed worker, a dropped connection) is re-issued when its deadline
// passes, so a lost worker's range always re-executes somewhere.
// Because every plan is deterministic and index-addressable, a
// re-executed position produces a byte-identical record, and the
// seq-dedup of CollectShardsIn keeps the merged log byte-identical to a
// single-process run no matter how many times a lease bounced.

import (
	"sync"
	"time"

	"xmrobust/internal/obs"
)

// Lease is one issued work unit: a run of campaign positions to execute.
// ID identifies this issuance — a re-issued lease carries a fresh ID and
// a bumped Attempt, so a stale holder's Complete cannot be confused with
// the re-issue's.
type Lease struct {
	ID      uint64
	Pos     []int
	Attempt int
}

// issued tracks one outstanding lease.
type issued struct {
	lease    Lease
	deadline time.Time
}

// Coordinator hands out leases over the pending positions of a campaign
// and reclaims the ones whose holders went silent. It is safe for
// concurrent use; Next blocks until a lease is available or the campaign
// is fully complete.
type Coordinator struct {
	mu   sync.Mutex
	cond *sync.Cond

	total int
	done  map[int]bool
	batch int
	limit int // max fresh positions to issue (0: no limit)
	ttl   time.Duration
	now   func() time.Time

	cursor      int    // next unexamined position
	fresh       int    // fresh positions issued so far
	nextID      uint64 // next lease ID
	outstanding map[uint64]*issued
	reissue     []Lease // expired or handed-back leases awaiting re-issue
	timer       *time.Timer
	closed      bool

	// met and trace are the observability hooks (nil when obs is off —
	// every emission is one nil check).
	met   *obs.LeaseMetrics
	trace *obs.Tracer
}

// NewCoordinator builds a coordinator over positions [0, total), skipping
// the done set (positions a checkpoint already completed), carving leases
// of at most batch positions, and issuing at most limit fresh positions
// (0: all pending). A ttl of 0 disables deadline reclaim — leases then
// only re-issue on an explicit HandBack.
func NewCoordinator(total int, done map[int]bool, batch, limit int, ttl time.Duration) *Coordinator {
	if batch < 1 {
		batch = 1
	}
	c := &Coordinator{
		total:       total,
		done:        done,
		batch:       batch,
		limit:       limit,
		ttl:         ttl,
		now:         time.Now, //xmlint:allow determinism -- lease deadlines are wall-clock by design; results stay position-keyed, so reclaim timing never reaches the log
		nextID:      1,
		outstanding: map[uint64]*issued{},
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// setClock replaces the coordinator's clock (tests).
func (c *Coordinator) setClock(now func() time.Time) { c.now = now }

// Instrument attaches lease metrics and a trace stream; either may be
// nil. Call before the first Next — the hooks are read without the
// coordinator's lock held against writes.
func (c *Coordinator) Instrument(m *obs.LeaseMetrics, tr *obs.Tracer) {
	c.met = m
	c.trace = tr
}

// carve builds the next fresh lease under the lock, or returns false
// when the position space (or the issue limit) is exhausted.
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

// reclaimExpired moves expired outstanding leases onto the re-issue
// queue. Caller holds the lock.
func (c *Coordinator) reclaimExpired() {
	if c.ttl <= 0 {
		return
	}
	now := c.now()
	for id, is := range c.outstanding {
		if !is.deadline.After(now) {
			delete(c.outstanding, id)
			c.reissue = append(c.reissue, is.lease)
			c.met.OnReclaim()
			c.trace.Emit(obs.Event{Kind: "lease.reclaim", Lease: id,
				Start: is.lease.Pos[0], N: len(is.lease.Pos), Attempt: is.lease.Attempt})
		}
	}
}

// armTimer schedules a cond broadcast at the earliest outstanding
// deadline so a Next blocked on reclaim wakes up. Caller holds the lock.
func (c *Coordinator) armTimer() {
	if c.ttl <= 0 || len(c.outstanding) == 0 {
		return
	}
	var earliest time.Time
	for _, is := range c.outstanding {
		if earliest.IsZero() || is.deadline.Before(earliest) {
			earliest = is.deadline
		}
	}
	d := earliest.Sub(c.now())
	if d < 0 {
		d = 0
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	c.timer = time.AfterFunc(d, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
}

// register issues a lease: assigns its ID, arms its deadline and tracks
// it outstanding. Caller holds the lock.
func (c *Coordinator) register(l Lease) Lease {
	l.ID = c.nextID
	c.nextID++
	is := &issued{lease: l}
	if c.ttl > 0 {
		is.deadline = c.now().Add(c.ttl)
	}
	c.outstanding[l.ID] = is
	c.met.OnIssue()
	c.trace.Emit(obs.Event{Kind: "lease.issue", Lease: l.ID,
		Start: l.Pos[0], N: len(l.Pos), Attempt: l.Attempt})
	return l
}

// Next returns the next lease to execute, blocking while every pending
// position is out on an unexpired lease. It returns ok=false once every
// position has been completed (or the coordinator is closed) — the
// campaign is done.
func (c *Coordinator) Next() (Lease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return Lease{}, false
		}
		c.reclaimExpired()
		if n := len(c.reissue); n > 0 {
			l := c.reissue[n-1]
			c.reissue = c.reissue[:n-1]
			l.Attempt++
			return c.register(l), true
		}
		if l, ok := c.carve(); ok {
			return c.register(l), true
		}
		if len(c.outstanding) == 0 {
			// Nothing pending, nothing outstanding: complete.
			return Lease{}, false
		}
		c.armTimer()
		c.cond.Wait()
	}
}

// Complete marks a lease finished. Completing an already-reclaimed (or
// unknown) ID is a no-op: the re-issued copy owns the range now, and the
// duplicate execution's records dedupe by seq downstream.
func (c *Coordinator) Complete(id uint64) {
	c.mu.Lock()
	if is, ok := c.outstanding[id]; ok {
		delete(c.outstanding, id)
		c.met.OnComplete()
		c.trace.Emit(obs.Event{Kind: "lease.complete", Lease: id,
			Start: is.lease.Pos[0], N: len(is.lease.Pos), Attempt: is.lease.Attempt})
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// HandBack returns an uncompleted lease for immediate re-issue — the
// cooperative path a holder takes when it knows it cannot finish (a
// dropped connection, a refused backend).
func (c *Coordinator) HandBack(id uint64) {
	c.mu.Lock()
	if is, ok := c.outstanding[id]; ok {
		delete(c.outstanding, id)
		c.reissue = append(c.reissue, is.lease)
		c.met.OnHandBack()
		c.trace.Emit(obs.Event{Kind: "lease.handback", Lease: id,
			Start: is.lease.Pos[0], N: len(is.lease.Pos), Attempt: is.lease.Attempt})
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// Extend refreshes a lease's deadline — the heartbeat of a holder that
// is alive but slow.
func (c *Coordinator) Extend(id uint64) {
	c.mu.Lock()
	if is, ok := c.outstanding[id]; ok && c.ttl > 0 {
		is.deadline = c.now().Add(c.ttl)
	}
	c.mu.Unlock()
}

// Close wakes every blocked Next with ok=false, abandoning the campaign.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	if c.timer != nil {
		c.timer.Stop()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Outstanding reports how many leases are currently issued and
// uncompleted.
func (c *Coordinator) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.outstanding)
}

// Issued reports how many fresh positions have been issued so far
// (re-issues of the same position count once).
func (c *Coordinator) Issued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fresh
}
