package main

// This file is the outside-in tracer: wrappers around the seams the
// program already exposes (an execution Target, the persistence Store, a
// net.Listener) record one span per call into the layer behind them.
// The program itself gains no instrumentation. Spans stay in memory and
// fold into per-layer totals when their campaign ends; the spans of the
// first few campaigns are kept and written out when the run ends.

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xmrobust/internal/campaign"
	"xmrobust/internal/sparc"
	"xmrobust/internal/store"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// keptCampaigns is how many campaigns' spans a traced run writes out;
// every campaign still folds into the per-layer totals.
const keptCampaigns = 2

// span is one timed call. Start and End are nanoseconds since the
// tracer's epoch; Parent is the ID of the campaign's root span.
type span struct {
	Name     string `json:"name"`
	Campaign int64  `json:"campaign"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracing is the switch the long-lived wrappers consult: nil tracer
// (the untraced phase) forwards every call untouched. current is the
// campaign executing now — set by the client loop of the sequential
// workloads, and by the daemon's checkpoint creation (its executor runs
// one campaign at a time).
type tracing struct {
	p       atomic.Pointer[tracer]
	current atomic.Int64
}

func (tg *tracing) on() *tracer {
	if tg == nil {
		return nil
	}
	return tg.p.Load()
}

// timed runs fn as a span of the current campaign when tracing is on.
func (tg *tracing) timed(name string, fn func()) {
	tr := tg.on()
	if tr == nil {
		fn()
		return
	}
	s := tr.now()
	fn()
	tr.record(name, tg.current.Load(), s)
}

// poolStater is the optional PoolStats capability of pooled targets.
type poolStater interface{ PoolStats() sparc.PoolStats }

// tracer holds the spans of the traced phase.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	roots  map[int64]int64  // campaign -> root span ID
	open   map[int64][]span // spans of campaigns not yet finished
	pools  map[int64]poolStater
	busy   map[string]int64 // summed span time by name (ns)
	calls  map[string]int64 // span count by name
	counts map[string]int64 // event counters (writes, bytes)
	kept   []span
	nKept  int
	rootNs int64 // summed campaign span time
	selfNs int64 // summed campaign self time
	// pool sums the pool counters of the wrapped targets of poolCampaigns
	// finished campaigns.
	pool          sparc.PoolStats
	poolCampaigns int
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		roots:  map[int64]int64{},
		open:   map[int64][]span{},
		pools:  map[int64]poolStater{},
		busy:   map[string]int64{},
		calls:  map[string]int64{},
		counts: map[string]int64{},
	}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// at converts a wall-clock reading to tracer time.
func (tr *tracer) at(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

// rootID returns the campaign's root span ID, allocating it on first
// use (daemon spans can start before the client learns the campaign ID).
// Caller holds mu.
func (tr *tracer) rootID(c int64) int64 {
	id, ok := tr.roots[c]
	if !ok {
		id = tr.nextID.Add(1)
		tr.roots[c] = id
	}
	return id
}

// record closes a span of campaign c that began at start.
func (tr *tracer) record(name string, c, start int64) { tr.add(name, c, start, tr.now()) }

// add records a finished span of campaign c.
func (tr *tracer) add(name string, c, start, end int64) {
	tr.mu.Lock()
	tr.open[c] = append(tr.open[c], span{Name: name, Campaign: c, ID: tr.nextID.Add(1),
		Parent: tr.rootID(c), Start: start, End: end})
	tr.mu.Unlock()
}

// count adds to an event counter.
func (tr *tracer) count(name string, n int64) {
	tr.mu.Lock()
	tr.counts[name] += n
	tr.mu.Unlock()
}

// provisioned remembers the target a campaign executes on, so finish
// can read its pool counters.
func (tr *tracer) provisioned(c int64, ps poolStater) {
	tr.mu.Lock()
	tr.pools[c] = ps
	tr.mu.Unlock()
}

// finish closes campaign c's root span [start, end], folds its spans
// into the per-layer totals and returns the pool counters of the target
// it executed on (ok false when none was provisioned through a wrapper).
// The root's self time is its duration minus the union of its
// children's intervals.
func (tr *tracer) finish(c int64, start, end time.Time) (ps sparc.PoolStats, ok bool) {
	s, e := tr.at(start), tr.at(end)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	spans := tr.open[c]
	root := span{Name: "campaign", Campaign: c, ID: tr.rootID(c), Start: s, End: e}
	delete(tr.open, c)
	delete(tr.roots, c)
	if p := tr.pools[c]; p != nil {
		ps, ok = p.PoolStats(), true
		delete(tr.pools, c)
		tr.pool = addPool(tr.pool, ps)
		tr.poolCampaigns++
	}
	ivs := make([][2]int64, 0, len(spans))
	for _, sp := range spans {
		tr.busy[sp.Name] += sp.End - sp.Start
		tr.calls[sp.Name]++
		if a, b := max(sp.Start, s), min(sp.End, e); a < b {
			ivs = append(ivs, [2]int64{a, b})
		}
	}
	tr.rootNs += e - s
	tr.selfNs += (e - s) - unionNs(ivs)
	if tr.nKept < keptCampaigns {
		tr.kept = append(append(tr.kept, root), spans...)
		tr.nKept++
	}
	return ps, ok
}

// addPool sums pool counters.
func addPool(a, b sparc.PoolStats) sparc.PoolStats {
	return sparc.PoolStats{Allocated: a.Allocated + b.Allocated, Reused: a.Reused + b.Reused,
		Discarded: a.Discarded + b.Discarded, Steals: a.Steals + b.Steals}
}

// subPool is the counter growth from a to b.
func subPool(b, a sparc.PoolStats) sparc.PoolStats {
	return sparc.PoolStats{Allocated: b.Allocated - a.Allocated, Reused: b.Reused - a.Reused,
		Discarded: b.Discarded - a.Discarded, Steals: b.Steals - a.Steals}
}

// unionNs is the total length covered by a set of intervals.
func unionNs(ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curS, curE int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > curE {
			total += curE - curS
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	return total + curE - curS
}

// writeSpans writes the kept spans as JSON Lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	for _, sp := range tr.kept {
		if err == nil {
			err = enc.Encode(sp)
		}
	}
	tr.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- execution targets ---------------------------------------------------

// tracedTarget times Acquire, Execute and Release of an execution
// backend under span names prefix+".acquire" and so on, and forwards the
// optional capabilities the engine probes for (PoolStats and
// InjectSignature here, BatchExecutor on tracedBatchTarget).
type tracedTarget struct {
	target.Target
	tg                        *tracing
	acquire, execute, release string // span names
}

// wrapTarget wraps inner, keeping exactly its BatchExecutor capability:
// the engine changes its dispatch on that probe.
func wrapTarget(inner target.Target, tg *tracing, prefix string) target.Target {
	t := &tracedTarget{Target: inner, tg: tg,
		acquire: prefix + ".acquire", execute: prefix + ".execute", release: prefix + ".release"}
	if be, ok := inner.(target.BatchExecutor); ok {
		return &tracedBatchTarget{tracedTarget: t, be: be}
	}
	return t
}

func (t *tracedTarget) Provision(workers int) error {
	err := t.Target.Provision(workers)
	if tr := t.tg.on(); tr != nil {
		if ps, ok := t.Target.(poolStater); ok {
			tr.provisioned(t.tg.current.Load(), ps)
		}
	}
	return err
}

func (t *tracedTarget) Acquire() target.Slot {
	tr := t.tg.on()
	if tr == nil {
		return t.Target.Acquire()
	}
	s := tr.now()
	slot := t.Target.Acquire()
	tr.record(t.acquire, t.tg.current.Load(), s)
	return slot
}

func (t *tracedTarget) Release(slot target.Slot) {
	tr := t.tg.on()
	if tr == nil {
		t.Target.Release(slot)
		return
	}
	s := tr.now()
	t.Target.Release(slot)
	tr.record(t.release, t.tg.current.Load(), s)
}

func (t *tracedTarget) Execute(slot target.Slot, ds testgen.Dataset, spec target.RunSpec) target.Result {
	tr := t.tg.on()
	if tr == nil {
		return t.Target.Execute(slot, ds, spec)
	}
	s := tr.now()
	r := t.Target.Execute(slot, ds, spec)
	tr.record(t.execute, t.tg.current.Load(), s)
	return r
}

// PoolStats forwards the pool counters (zero when the backend has none,
// which the engine treats like an absent capability).
func (t *tracedTarget) PoolStats() sparc.PoolStats {
	if ps, ok := t.Target.(poolStater); ok {
		return ps.PoolStats()
	}
	return sparc.PoolStats{}
}

// InjectSignature forwards the SEU schedule signature ("" when the
// backend injects nothing, which the checkpoint records like an absent
// capability).
func (t *tracedTarget) InjectSignature() string {
	if is, ok := t.Target.(interface{ InjectSignature() string }); ok {
		return is.InjectSignature()
	}
	return ""
}

// tracedBatchTarget adds the BatchExecutor capability.
type tracedBatchTarget struct {
	*tracedTarget
	be target.BatchExecutor
}

func (t *tracedBatchTarget) ExecuteBatch(slot target.Slot, batch []testgen.Dataset, spec target.RunSpec) []target.Result {
	tr := t.tg.on()
	if tr == nil {
		return t.be.ExecuteBatch(slot, batch, spec)
	}
	s := tr.now()
	rs := t.be.ExecuteBatch(slot, batch, spec)
	tr.record(t.execute, t.tg.current.Load(), s)
	return rs
}

// --- persistence ----------------------------------------------------------

// tracedStore times every write through the writers a store hands out:
// checkpoint marks under "store.checkpoint_append", shard records under
// "store.shard_write". Reads pass through untimed — two read paths
// bypass the store seam anyway, so read costs are measured by calling
// ScanShards and MergeShards directly. onCheckpoint, when set, sees
// every checkpoint name before it is created.
type tracedStore struct {
	store.Store
	tg           *tracing
	onCheckpoint func(name string)
}

func (s tracedStore) CreateCheckpoint(name string) (io.WriteCloser, error) {
	if s.onCheckpoint != nil {
		s.onCheckpoint(name)
	}
	w, err := s.Store.CreateCheckpoint(name)
	return s.wrap(w, err, "store.checkpoint_append")
}

func (s tracedStore) AppendCheckpoint(name string) (io.WriteCloser, error) {
	w, err := s.Store.AppendCheckpoint(name)
	return s.wrap(w, err, "store.checkpoint_append")
}

// AppendLog times shard records as "store.shard_write"; other logs (the
// daemon's obs trace file) as "store.log_write".
func (s tracedStore) AppendLog(name string, trimTorn bool) (io.WriteCloser, error) {
	w, err := s.Store.AppendLog(name, trimTorn)
	span := "store.log_write"
	if ok, _ := filepath.Match(campaign.ShardPattern, filepath.Base(name)); ok {
		span = "store.shard_write"
	}
	return s.wrap(w, err, span)
}

func (s tracedStore) wrap(w io.WriteCloser, err error, name string) (io.WriteCloser, error) {
	if err != nil {
		return nil, err
	}
	return &tracedWriter{WriteCloser: w, tg: s.tg, name: name}, nil
}

type tracedWriter struct {
	io.WriteCloser
	tg   *tracing
	name string
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	tr := w.tg.on()
	if tr == nil {
		return w.WriteCloser.Write(p)
	}
	s := tr.now()
	n, err := w.WriteCloser.Write(p)
	tr.record(w.name, w.tg.current.Load(), s)
	tr.count(w.name+".bytes", int64(n))
	return n, err
}

// --- wire -----------------------------------------------------------------

// wireStats counts a listener's connections, bytes and frames in both
// directions. rx is what the server read (client frames), tx what it
// wrote.
type wireStats struct {
	open               atomic.Int64
	rxBytes, txBytes   atomic.Int64
	rxFrames, txFrames atomic.Int64
}

func (w *wireStats) bytes() int64  { return w.rxBytes.Load() + w.txBytes.Load() }
func (w *wireStats) frames() int64 { return w.rxFrames.Load() + w.txFrames.Load() }

// countingListener is handed to remote.Server.Serve in traced runs.
type countingListener struct {
	net.Listener
	st *wireStats
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.st.open.Add(1)
	return &countingConn{Conn: c, st: l.st}, nil
}

// countingConn counts one accepted connection's traffic. The server
// reads each connection from one goroutine and serialises its writes
// under a lock, so each direction's frame parser has one user at a time.
type countingConn struct {
	net.Conn
	st     *wireStats
	rx, tx frameCounter
	closed sync.Once
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.rxBytes.Add(int64(n))
	c.st.rxFrames.Add(c.rx.feed(p[:n]))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.st.txBytes.Add(int64(n))
	c.st.txFrames.Add(c.tx.feed(p[:n]))
	return n, err
}

func (c *countingConn) Close() error {
	c.closed.Do(func() { c.st.open.Add(-1) })
	return c.Conn.Close()
}

// frameCounter follows the wire protocol's length-prefixed framing (a
// 4-byte big-endian length, then the payload) across arbitrary reads.
type frameCounter struct {
	hdr  [4]byte
	nhdr int
	left uint32
}

// feed consumes p and returns how many frame headers completed in it.
func (f *frameCounter) feed(p []byte) (frames int64) {
	for len(p) > 0 {
		if f.left > 0 {
			n := min(uint32(len(p)), f.left)
			f.left -= n
			p = p[n:]
			continue
		}
		k := copy(f.hdr[f.nhdr:], p)
		f.nhdr += k
		p = p[k:]
		if f.nhdr == len(f.hdr) {
			f.left = binary.BigEndian.Uint32(f.hdr[:])
			f.nhdr = 0
			frames++
		}
	}
	return frames
}
