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

// Tunables of the fan-out client. The window bounds pipelined leases per
// connection so one worker cannot swallow the whole queue while another
// idles; the backoff paces redials of a down worker; the attempt cap is
// what turns "every worker is gone" into RunErr records instead of a
// campaign hang.
const (
	inflightWindow = 8
	dialBackoffMin = 50 * time.Millisecond
	dialBackoffMax = 2 * time.Second
	execAttempts   = 8
	dialTimeout    = 3 * time.Second
	helloTimeout   = 5 * time.Second
)

// errConnDown marks a transport failure a retry on another connection
// can heal (as opposed to a protocol refusal, which is deterministic).
var errConnDown = errors.New("remote: connection down")

// errClosed fails the leases of a client after Close.
var errClosed = errors.New("remote: client closed")

// client is the "remote:" execution backend: it fans leases across one
// managed connection per worker address. Execute and ExecuteBatch are
// synchronous per caller — the campaign engine's worker pool provides
// the concurrency, and per-connection windows keep each worker's
// pipeline bounded. A connection failure retries the lease on the next
// live worker (re-dialling dead ones behind a backoff), which is the
// lease hand-back path: the caller still holds the lease, so the
// coordinator sees one completion however many workers the lease
// bounced through.
type client struct {
	spec   string
	addrs  []string
	header *apispec.Header
	// ctx is the campaign's cancellation context (target.Config.Ctx).
	// Once done, in-flight round trips abandon their wait — the worker
	// may still execute the lease, but nobody listens — and exec returns
	// Aborted results the engine discards instead of logging. Never nil
	// (Background when the campaign runs uncancellable).
	ctx context.Context

	next   atomic.Uint64 // round-robin cursor over addrs
	nextID atomic.Uint64 // request IDs, unique across connections

	// met is the client's metric set — always a non-nil struct; its
	// handles are nil (one nil check per event) when obs is off.
	met *obs.RemoteMetrics

	mu     sync.Mutex
	conns  []*workerConn // lazily (re)dialled, one slot per addr
	dial   []dialState   // per-addr redial pacing
	closed bool          // set by Close: no more dials
}

// dialState paces redials of one address.
type dialState struct {
	delay     time.Duration
	notBefore time.Time
}

// workerConn is one live connection: a write lock over a reused frame
// buffer, a response demultiplexer keyed by request ID reading through
// a buffered reader, and an in-flight window.
type workerConn struct {
	addr        string
	helloTarget string // target spec the worker's hello advertised
	conn        net.Conn
	br          *bufio.Reader // read by dialWorker, then only by readLoop
	done        chan struct{} // closed when readLoop exits
	window      chan struct{}
	met         *obs.RemoteMetrics // never nil; nil handles when obs off

	wmu  sync.Mutex // frame writes interleave frames, never bytes
	wbuf []byte     // request frame storage, guarded by wmu

	pmu     sync.Mutex
	pending map[uint64]chan response
	downErr error
}

// response is one demultiplexed response frame: its decoded header and
// the record lines that follow it.
type response struct {
	hdr     respHeader
	records []byte
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
	return &client{
		spec:   Name + ":" + strings.Join(addrs, ","),
		addrs:  addrs,
		header: apispec.Default(),
		ctx:    ctx,
		met:    obs.NewRemoteMetrics(cfg.Obs.Registry()),
		conns:  make([]*workerConn, len(addrs)),
		dial:   make([]dialState, len(addrs)),
	}, nil
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
		wc, err := c.getConn(i)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
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

// Acquire and Release are trivial: the client's slots are the
// per-connection windows, managed inside exec.
func (c *client) Acquire() target.Slot { return nil }

// Release returns a slot (a no-op; see Acquire).
func (c *client) Release(target.Slot) {}

// Close drops every worker connection and returns once their read loops
// have exited. It dials no more: leases executed after Close fail with
// RunErr.
func (c *client) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := c.conns
	c.conns = make([]*workerConn, len(c.addrs))
	c.mu.Unlock()
	for _, wc := range conns {
		if wc != nil {
			wc.fail(errClosed)
			<-wc.done
		}
	}
	return nil
}

// Execute runs one dataset on some live worker.
func (c *client) Execute(_ target.Slot, ds testgen.Dataset, spec target.RunSpec) target.Result {
	return c.exec([]testgen.Dataset{ds}, spec)[0]
}

// ExecuteBatch runs a lease of datasets on some live worker in one
// round trip — the BatchExecutor capability, so the engine amortises
// the network round trip exactly like a pooled target amortises
// recycle-and-verify. Results are byte-identical to unbatched execution
// whether or not the worker's own target batches.
func (c *client) ExecuteBatch(_ target.Slot, batch []testgen.Dataset, spec target.RunSpec) []target.Result {
	return c.exec(batch, spec)
}

// exec round-trips one lease, handing it to the next worker on every
// transport failure until a response lands or the attempt budget is
// spent (then every test fails with RunErr — the campaign completes and
// classifies the outage instead of hanging).
func (c *client) exec(batch []testgen.Dataset, spec target.RunSpec) []target.Result {
	// The dataset's Index is its global campaign position — plans and
	// slices both key it that way — so the worker's records come back
	// already carrying the right seq.
	req := execRequest{Spec: spec, Tests: batch}
	var lastErr error
	for attempt := 0; attempt < execAttempts; attempt++ {
		if err := c.ctx.Err(); err != nil {
			// The campaign is cancelled: abandon the lease. Aborted
			// results are discarded by the engine — the positions stay
			// pending and re-execute on resume.
			return abortedResults(batch, err)
		}
		wc, err := c.pick()
		if errors.Is(err, errClosed) {
			return errResults(batch, err)
		}
		if err != nil {
			lastErr = err
			c.met.Retries.Inc()
			time.Sleep(backoff(attempt))
			continue
		}
		req.ID = c.nextID.Add(1)
		resp, err := wc.roundTrip(c.ctx, &req)
		if err != nil && c.ctx.Err() != nil {
			return abortedResults(batch, c.ctx.Err())
		}
		if errors.Is(err, errConnDown) {
			// The worker died with our lease in flight: hand it to the
			// next one. Anything it already executed re-executes there,
			// byte-identically.
			lastErr = err
			c.met.Retries.Inc()
			continue
		}
		if err != nil {
			return errResults(batch, err)
		}
		results, err := c.decodeResults(resp, batch)
		if err != nil {
			return errResults(batch, err)
		}
		return results
	}
	return errResults(batch, lastErr)
}

// pick returns a live connection, round-robin across the fleet,
// re-dialling dead workers whose backoff has elapsed.
func (c *client) pick() (*workerConn, error) {
	start := int(c.next.Add(1))
	var firstErr error
	for k := 0; k < len(c.addrs); k++ {
		i := (start + k) % len(c.addrs)
		wc, err := c.getConn(i)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return wc, nil
	}
	return nil, fmt.Errorf("remote: no live worker: %w", firstErr)
}

// getConn returns the live connection for addr i, dialling if the slot
// is empty or dead and its backoff window has elapsed.
func (c *client) getConn(i int) (*workerConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClosed
	}
	if wc := c.conns[i]; wc != nil && !wc.down() {
		return wc, nil
	}
	if now := time.Now(); now.Before(c.dial[i].notBefore) {
		return nil, fmt.Errorf("remote: %s is down (retry backoff)", c.addrs[i])
	}
	wc, err := dialWorker(c.addrs[i], c.met)
	if err != nil {
		c.met.DialErrors.Inc()
		d := &c.dial[i]
		d.delay *= 2
		if d.delay < dialBackoffMin {
			d.delay = dialBackoffMin
		}
		if d.delay > dialBackoffMax {
			d.delay = dialBackoffMax
		}
		d.notBefore = time.Now().Add(d.delay)
		return nil, err
	}
	c.met.Dials.Inc()
	c.dial[i] = dialState{}
	c.conns[i] = wc
	return wc, nil
}

// dialWorker dials one worker and verifies its hello. met must be
// non-nil (its handles may be — obs off).
func dialWorker(addr string, met *obs.RemoteMetrics) (*workerConn, error) {
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
	wc := &workerConn{
		addr:        addr,
		helloTarget: hello.Target,
		conn:        conn,
		br:          br,
		done:        make(chan struct{}),
		window:      make(chan struct{}, inflightWindow),
		met:         met,
		pending:     map[uint64]chan response{},
	}
	go wc.readLoop()
	return wc, nil
}

// WorkerTarget dials addr and returns the target spec its hello
// advertises — the discovery surface behind fleet-consistency checks.
func WorkerTarget(addr string) (string, error) {
	wc, err := dialWorker(addr, obs.NewRemoteMetrics(nil))
	if err != nil {
		return "", err
	}
	wc.conn.Close()
	return wc.helloTarget, nil
}

// down reports whether the connection has failed.
func (wc *workerConn) down() bool {
	wc.pmu.Lock()
	defer wc.pmu.Unlock()
	return wc.downErr != nil
}

// fail marks the connection dead and wakes every pending round trip with
// the bad news.
func (wc *workerConn) fail(err error) {
	wc.pmu.Lock()
	if wc.downErr == nil {
		wc.downErr = err
		for id, ch := range wc.pending {
			close(ch)
			delete(wc.pending, id)
		}
	}
	wc.pmu.Unlock()
	wc.conn.Close()
}

// readLoop demultiplexes response frames to their waiting round trips,
// decoding each header once.
func (wc *workerConn) readLoop() {
	defer close(wc.done)
	for {
		payload, err := readFrame(wc.br, nil)
		if err != nil {
			wc.fail(fmt.Errorf("%w: %s: %v", errConnDown, wc.addr, err))
			return
		}
		wc.met.WireRx.Add(uint64(len(payload)) + frameOverhead)
		hdr, records, err := decodeRespHeader(payload)
		if err != nil {
			wc.fail(fmt.Errorf("%w: %s: %v", errConnDown, wc.addr, err))
			return
		}
		wc.pmu.Lock()
		ch := wc.pending[hdr.ID]
		delete(wc.pending, hdr.ID)
		wc.pmu.Unlock()
		if ch != nil {
			ch <- response{hdr: hdr, records: records}
		}
	}
}

// roundTrip sends one request frame and waits for its response,
// respecting the in-flight window. errConnDown failures are retryable
// on another connection; a done ctx abandons the wait (the connection
// stays healthy — the worker's eventual response is dropped by the
// demultiplexer, whose pending entry is removed here).
func (wc *workerConn) roundTrip(ctx context.Context, req *execRequest) (response, error) {
	select {
	case wc.window <- struct{}{}:
	case <-ctx.Done():
		return response{}, ctx.Err()
	}
	wc.met.Inflight.Add(1)
	defer func() {
		wc.met.Inflight.Add(-1)
		<-wc.window
	}()

	ch := make(chan response, 1)
	wc.pmu.Lock()
	if wc.downErr != nil {
		err := wc.downErr
		wc.pmu.Unlock()
		return response{}, err
	}
	wc.pending[req.ID] = ch
	wc.pmu.Unlock()

	wc.wmu.Lock()
	wc.wbuf = appendRequest(beginFrame(wc.wbuf), req)
	err := sendFrame(wc.conn, wc.wbuf)
	sent := len(wc.wbuf)
	wc.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("%w: %s: %v", errConnDown, wc.addr, err)
		wc.fail(err)
		return response{}, err
	}
	wc.met.WireTx.Add(uint64(sent))

	select {
	case resp, ok := <-ch:
		if !ok {
			wc.pmu.Lock()
			err := wc.downErr
			wc.pmu.Unlock()
			return response{}, err
		}
		return resp, nil
	case <-ctx.Done():
		wc.pmu.Lock()
		delete(wc.pending, req.ID)
		wc.pmu.Unlock()
		return response{}, ctx.Err()
	}
}

// decodeResults turns a response back into execution logs, in lease
// order.
func (c *client) decodeResults(resp response, batch []testgen.Dataset) ([]target.Result, error) {
	hdr := resp.hdr
	if hdr.Err != "" {
		return nil, fmt.Errorf("remote: worker refused lease: %s", hdr.Err)
	}
	if hdr.N != len(batch) {
		return nil, fmt.Errorf("remote: worker returned %d records for a lease of %d", hdr.N, len(batch))
	}
	results := make([]target.Result, 0, len(batch))
	rest := resp.records
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

// abortedResults marks every test of a cancelled lease Aborted — the
// engine discards them instead of logging, so the positions stay
// unmarked in the checkpoint and re-execute on resume.
func abortedResults(batch []testgen.Dataset, err error) []target.Result {
	out := make([]target.Result, 0, len(batch))
	for _, ds := range batch {
		out = append(out, target.Result{Dataset: ds, RunErr: err.Error(), Aborted: true})
	}
	return out
}

// errResults fails every test of a lease with the transport error — the
// harness-error shape every other backend uses for environmental
// failures.
func errResults(batch []testgen.Dataset, err error) []target.Result {
	out := make([]target.Result, 0, len(batch))
	for _, ds := range batch {
		out = append(out, target.Result{Dataset: ds, RunErr: err.Error()})
	}
	return out
}

// backoff paces lease retries when no worker is reachable.
func backoff(attempt int) time.Duration {
	d := dialBackoffMin << attempt
	if d > dialBackoffMax {
		d = dialBackoffMax
	}
	return d
}
