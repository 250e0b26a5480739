package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/obs"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// Name is the registered spec prefix of the distributed backend.
const Name = "remote"

func init() {
	target.Register(Name,
		"execute on xmworker processes over TCP: remote:<addr>[,<addr>...]",
		func(arg string, cfg target.Config) (target.Target, error) { return newClient(arg, cfg) })
}

// Tunables of the fan-out client. The backoff paces redials of a down
// worker and the waits between attempts; the attempt cap is what turns
// "every worker is gone" into an aborted lease, which stops the
// campaign, instead of a campaign hang.
const (
	dialBackoffMin = 50 * time.Millisecond
	dialBackoffMax = 2 * time.Second
	execAttempts   = 8
	dialTimeout    = 3 * time.Second
	helloTimeout   = 5 * time.Second
)

// errClosed aborts the leases of a client after Close.
var errClosed = errors.New("remote: client closed")

// client is the "remote:" execution backend: each lease holds a
// connection of its own for its round trip. Execute and ExecuteBatch are
// synchronous per caller — the campaign engine's worker pool provides
// the concurrency and bounds the leases in flight, so the client opens
// at most one connection per running engine worker. A lease takes an
// idle connection to any worker, scanning the fleet round-robin, or
// dials one; it writes its request and reads the response on its own
// goroutine, and hands the connection back only once the response is
// decoded. A failed round trip drops the connection and retries the
// lease on another (re-dialling dead workers behind a backoff), which
// is the only way a lease re-executes: the caller still holds the
// lease, so the coordinator sees one completion however many workers
// the lease bounced through. When the attempts run out, the lease comes
// back Aborted: not executed, nothing logged, and the engine stops the
// campaign so a resume can finish it.
type client struct {
	spec   string
	addrs  []string
	header *apispec.Header
	// ctx is the campaign's cancellation context (target.Config.Ctx).
	// Once done, the client closes: round trips in flight and retry
	// waits abandon — the worker may still execute the lease, but nobody
	// listens — and exec returns Aborted results the engine discards
	// instead of logging. Never nil (Background when the campaign runs
	// uncancellable).
	ctx context.Context

	next   atomic.Uint64 // round-robin cursor over addrs
	nextID atomic.Uint64 // request IDs, unique across connections

	// met is the client's metric set — always a non-nil struct; its
	// handles are nil (one nil check per event) when obs is off.
	met *obs.RemoteMetrics

	mu     sync.Mutex
	idle   [][]*workerConn          // per addr: connections no lease holds
	open   map[*workerConn]struct{} // every connection, idle or held
	dial   []dialState              // per-addr redial pacing
	closed bool                     // set by Close: no more dials
}

// dialState paces redials of one address. Until notBefore, the address
// keeps failing with its last dial error.
type dialState struct {
	delay     time.Duration
	notBefore time.Time
	err       error
}

// workerConn is one connection to a worker, idle or held by one lease.
// buf holds the lease's request frame, then its response payload.
type workerConn struct {
	i           int // the worker's index in client.addrs
	addr        string
	helloTarget string // target spec the worker's hello advertised
	conn        net.Conn
	br          *bufio.Reader
	buf         []byte
}

func newClient(arg string, cfg target.Config) (*client, error) {
	var addrs []string
	for _, a := range strings.Split(arg, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("target: remote: no worker addresses (want remote:<addr>[,<addr>...])")
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	c := &client{
		spec:   Name + ":" + strings.Join(addrs, ","),
		addrs:  addrs,
		header: apispec.Default(),
		ctx:    ctx,
		met:    obs.NewRemoteMetrics(cfg.Obs.Registry()),
		idle:   make([][]*workerConn, len(addrs)),
		open:   map[*workerConn]struct{}{},
		dial:   make([]dialState, len(addrs)),
	}
	// One close per client, not per round trip. The engine's campaign
	// context always ends with the campaign, and the registration with it.
	context.AfterFunc(ctx, func() { c.Close() })
	return c, nil
}

// Name returns the canonical spec.
func (c *client) Name() string { return c.spec }

// Provision dials every worker. One live worker is enough to run (the
// rest keep re-dialling behind the scenes), but zero is a refusal — a
// campaign against an empty fleet should fail loudly, not emit a log of
// RunErr records. A fleet advertising two different target specs is
// refused too: its records would splice two backends' logs into one
// campaign.
func (c *client) Provision(workers int) error {
	var (
		firstErr error
		fleet    string
		fleetOf  string
	)
	live := 0
	for i := range c.addrs {
		wc, err := c.connect(i)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.put(wc)
		if live == 0 {
			fleet, fleetOf = wc.helloTarget, wc.addr
		} else if wc.helloTarget != fleet {
			return fmt.Errorf("target: remote: worker %s executes %q but %s executes %q — a fleet must share one target",
				wc.addr, wc.helloTarget, fleetOf, fleet)
		}
		live++
	}
	if live == 0 {
		return fmt.Errorf("target: remote: no worker reachable: %w", firstErr)
	}
	return nil
}

// Acquire and Release are trivial: the client holds no per-lease state
// outside exec.
func (c *client) Acquire() target.Slot { return nil }

// Release returns a slot (a no-op; see Acquire).
func (c *client) Release(target.Slot) {}

// Close closes every connection, idle or held by a lease in flight, and
// dials no more: leases in flight or executed after Close come back
// Aborted.
func (c *client) Close() error {
	c.mu.Lock()
	c.closed = true
	open := c.open
	c.open = nil
	c.mu.Unlock()
	for wc := range open {
		wc.conn.Close()
	}
	return nil
}

// Execute runs one dataset on some live worker.
func (c *client) Execute(_ target.Slot, ds testgen.Dataset, spec target.RunSpec) target.Result {
	return c.exec([]testgen.Dataset{ds}, spec)[0]
}

// ExecuteBatch runs a lease of datasets on some live worker in one
// round trip — the BatchExecutor capability, so the tests of a lease
// share one request frame and one response frame. Results are
// byte-identical to a lease of one whether or not the worker's own
// target batches.
func (c *client) ExecuteBatch(_ target.Slot, batch []testgen.Dataset, spec target.RunSpec) []target.Result {
	return c.exec(batch, spec)
}

// exec round-trips one lease, handing it to another connection on
// every failed round trip until a response lands. When the attempt
// budget is spent, the client is closed or the campaign is cancelled,
// the lease comes back Aborted (not executed); a worker's refusal or an
// undecodable response fails every test with RunErr.
func (c *client) exec(batch []testgen.Dataset, spec target.RunSpec) []target.Result {
	// Results come back in lease order; the engine pairs them with the
	// lease's positions.
	req := execRequest{Spec: spec, Tests: batch}
	var lastErr error
	for attempt := 0; attempt < execAttempts; attempt++ {
		if err := c.stopped(); err != nil {
			return abortedResults(batch, err)
		}
		wc, err := c.take()
		if errors.Is(err, errClosed) {
			return abortedResults(batch, err)
		}
		if err != nil {
			lastErr = err
			c.met.Retries.Inc()
			select {
			case <-time.After(backoff(attempt)):
			case <-c.ctx.Done():
			}
			continue
		}
		req.ID = c.nextID.Add(1)
		hdr, records, err := c.roundTrip(wc, &req)
		if err != nil {
			c.drop(wc)
			if err := c.stopped(); err != nil {
				// Cancelled, or closed under us: Close closes the
				// connections of leases in flight too.
				return abortedResults(batch, err)
			}
			// The worker died, or answered another request, with our
			// lease in flight: hand it to the next connection. Anything
			// it already executed re-executes there, byte-identically.
			lastErr = err
			c.met.Retries.Inc()
			continue
		}
		results, err := c.decodeResults(hdr, records, batch)
		// The records are views of the connection's buffer, so the
		// connection goes back only once they are decoded.
		c.put(wc)
		if err != nil {
			return errResults(batch, err)
		}
		return results
	}
	return abortedResults(batch, fmt.Errorf("remote: lease abandoned after %d attempts: %w", execAttempts, lastErr))
}

// stopped returns why no lease may start another attempt: the
// campaign's cancel or Close. Nil while the client runs.
func (c *client) stopped() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClosed
	}
	return nil
}

// take hands a lease a connection of its own: an idle one to any
// worker, scanning the fleet from the round-robin cursor, else a new
// one to the first worker from the cursor that answers a dial.
func (c *client) take() (*workerConn, error) {
	start := int(c.next.Add(1))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	for k := range c.addrs {
		i := (start + k) % len(c.addrs)
		if n := len(c.idle[i]); n > 0 {
			wc := c.idle[i][n-1]
			c.idle[i] = c.idle[i][:n-1]
			c.mu.Unlock()
			return wc, nil
		}
	}
	c.mu.Unlock()
	var firstErr error
	for k := range c.addrs {
		wc, err := c.connect((start + k) % len(c.addrs))
		if err == nil || errors.Is(err, errClosed) {
			return wc, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("remote: no live worker: %w", firstErr)
}

// put returns a connection whose round trip completed to the idle set.
func (c *client) put(wc *workerConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// Close has closed it already.
		return
	}
	c.idle[wc.i] = append(c.idle[wc.i], wc)
}

// drop closes a connection whose round trip failed, and every idle
// connection to the same worker: a connection that missed its response
// never serves another lease, and a worker that failed one round trip
// has most likely failed the rest.
func (c *client) drop(wc *workerConn) {
	c.mu.Lock()
	stale := append(c.idle[wc.i], wc)
	c.idle[wc.i] = nil
	for _, s := range stale {
		delete(c.open, s)
	}
	c.mu.Unlock()
	for _, s := range stale {
		s.conn.Close()
	}
}

// connect dials worker i unless its redial backoff is pending. The
// dial runs outside the client's lock, so a slow worker holds up no
// other lease and no Close.
func (c *client) connect(i int) (*workerConn, error) {
	c.mu.Lock()
	d := c.dial[i]
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	if time.Now().Before(d.notBefore) {
		return nil, d.err
	}
	wc, err := dialWorker(c.addrs[i])
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.met.DialErrors.Inc()
		d := &c.dial[i]
		d.delay = min(max(2*d.delay, dialBackoffMin), dialBackoffMax)
		d.notBefore = time.Now().Add(d.delay)
		d.err = err
		return nil, err
	}
	if c.closed {
		wc.conn.Close()
		return nil, errClosed
	}
	c.met.Dials.Inc()
	c.dial[i] = dialState{}
	wc.i = i
	c.open[wc] = struct{}{}
	return wc, nil
}

// dialWorker dials one worker and verifies its hello.
func dialWorker(addr string) (*workerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	payload, err := readFrame(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: %s: no hello: %w", addr, err)
	}
	conn.SetReadDeadline(time.Time{})
	var hello Hello
	if err := json.Unmarshal(payload, &hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: %s: bad hello: %w", addr, err)
	}
	if hello.Proto != ProtoVersion {
		conn.Close()
		return nil, fmt.Errorf("remote: %s speaks protocol %d, this client speaks %d", addr, hello.Proto, ProtoVersion)
	}
	return &workerConn{addr: addr, helloTarget: hello.Target, conn: conn, br: br}, nil
}

// roundTrip writes one request on wc and reads the response on the same
// goroutine, refusing a response to any other request. The records it
// returns are views of wc's buffer, valid until wc's next round trip.
func (c *client) roundTrip(wc *workerConn, req *execRequest) (respHeader, []byte, error) {
	wc.buf = appendRequest(beginFrame(wc.buf), req)
	if err := sendFrame(wc.conn, wc.buf); err != nil {
		return respHeader{}, nil, fmt.Errorf("remote: %s: %w", wc.addr, err)
	}
	c.met.WireTx.Add(uint64(len(wc.buf)))
	payload, err := readFrame(wc.br, wc.buf)
	if err != nil {
		return respHeader{}, nil, fmt.Errorf("remote: %s: %w", wc.addr, err)
	}
	wc.buf = payload
	c.met.WireRx.Add(uint64(len(payload)) + frameOverhead)
	hdr, records, err := decodeRespHeader(payload)
	if err != nil {
		return respHeader{}, nil, fmt.Errorf("remote: %s: %w", wc.addr, err)
	}
	if hdr.ID != req.ID {
		return respHeader{}, nil, fmt.Errorf("remote: %s: response to request %d, want %d", wc.addr, hdr.ID, req.ID)
	}
	return hdr, records, nil
}

// decodeResults turns a response back into execution logs, in lease
// order.
func (c *client) decodeResults(hdr respHeader, records []byte, batch []testgen.Dataset) ([]target.Result, error) {
	if hdr.Err != "" {
		return nil, fmt.Errorf("remote: worker refused lease: %s", hdr.Err)
	}
	if hdr.N != len(batch) {
		return nil, fmt.Errorf("remote: worker returned %d records for a lease of %d", hdr.N, len(batch))
	}
	results := make([]target.Result, 0, len(batch))
	rest := records
	for len(results) < hdr.N {
		j := bytes.IndexByte(rest, '\n')
		if j < 0 {
			return nil, fmt.Errorf("remote: response truncated at record %d", len(results))
		}
		var rec campaign.JSONRecord
		if err := (campaign.Codec{}).Decode(rest[:j+1], &rec); err != nil {
			return nil, fmt.Errorf("remote: record %d: %w", len(results), err)
		}
		r, err := rec.Result(c.header)
		if err != nil {
			return nil, fmt.Errorf("remote: record %d: %w", len(results), err)
		}
		results = append(results, r)
		rest = rest[j+1:]
	}
	return results, nil
}

// abortedResults marks every test of a lease that was not executed
// Aborted, carrying why — the engine discards them instead of logging,
// so the positions have no shard record and re-execute on resume.
func abortedResults(batch []testgen.Dataset, err error) []target.Result {
	out := make([]target.Result, 0, len(batch))
	for _, ds := range batch {
		out = append(out, target.Result{Dataset: ds, RunErr: err.Error(), Aborted: true})
	}
	return out
}

// errResults fails every test of a lease a worker refused or answered
// with undecodable records — the harness-error shape every other
// backend uses for environmental failures.
func errResults(batch []testgen.Dataset, err error) []target.Result {
	out := make([]target.Result, 0, len(batch))
	for _, ds := range batch {
		out = append(out, target.Result{Dataset: ds, RunErr: err.Error()})
	}
	return out
}

// backoff paces lease attempts when no worker is reachable.
func backoff(attempt int) time.Duration {
	d := dialBackoffMin << attempt
	if d > dialBackoffMax {
		d = dialBackoffMax
	}
	return d
}
