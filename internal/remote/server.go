package remote

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/dict"
	"xmrobust/internal/obs"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// Server wraps one local target behind the wire protocol: every accepted
// connection gets a hello, then a stream of lease requests, each executed
// on the wrapped target and answered with campaign-log records.
// Connections pipeline: each runs up to Workers executor goroutines that
// live as long as the connection, so one slow lease never stalls the
// link and the target's stack grows once per executor, not per request.
// A server-wide semaphore bounds executions across all connections to
// Workers.
type Server struct {
	// Target executes the leases; it may be any registered backend
	// (sim, phantom, diff:..., inject:...). Provision is called once with
	// Workers before the first request executes.
	Target target.Target
	// Workers bounds concurrent lease execution (default 1).
	Workers int
	// ExitAfter, when positive, makes the server call OnExit once that
	// many tests have executed — before the crossing request's response
	// is written. It deterministically simulates a worker dying mid-lease
	// (the lease's client never hears back), the scenario the client's
	// retry exists for; see the remote-smoke make target.
	ExitAfter int
	// OnExit is called when ExitAfter trips (required with ExitAfter).
	OnExit func()
	// Logf, when set, receives one line per accepted connection and per
	// refused request.
	Logf func(format string, args ...any)
	// Obs, when non-nil, publishes the worker's metrics (tests executed,
	// open connections, wire bytes) and live progress — the worker side
	// of the observability spine.
	Obs *obs.Obs

	provisionOnce sync.Once
	provisionErr  error
	sem           chan struct{}
	executed      atomic.Int64
	exitOnce      sync.Once
	met           *obs.WorkerMetrics // set in provision; nil handles when obs off

	// The run spec's header and dictionary, built once in provision and
	// shared by every request.
	header *apispec.Header
	dict   *dict.Dictionary

	draining atomic.Bool
	connWG   sync.WaitGroup

	connsMu sync.Mutex
	open    map[net.Conn]struct{}
	ln      net.Listener
}

// Listen binds addr, starts serving in a background goroutine, and
// returns the bound address — the in-process form of running
// cmd/xmworker, used by benchmarks and tests. Provisioning failures
// surface here, synchronously. Stop the server with Close.
func (s *Server) Listen(addr string) (string, error) {
	if err := s.provision(); err != nil {
		return "", fmt.Errorf("remote: provision %s: %w", s.Target.Name(), err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops a Listen-started server: the listener stops accepting and
// every live connection drops.
func (s *Server) Close() {
	if s.ln != nil {
		s.ln.Close()
	}
	s.CloseConnections()
}

// CloseConnections drops every live connection — the in-process analogue
// of the worker dying (cmd/xmworker's OnExit simply exits). Clients see
// their in-flight leases fail and retry them on another worker.
func (s *Server) CloseConnections() {
	s.connsMu.Lock()
	for conn := range s.open {
		conn.Close()
	}
	s.connsMu.Unlock()
}

func (s *Server) track(conn net.Conn) {
	s.connsMu.Lock()
	if s.open == nil {
		s.open = map[net.Conn]struct{}{}
	}
	s.open[conn] = struct{}{}
	s.connsMu.Unlock()
	s.met.Connections.Add(1)
}

func (s *Server) untrack(conn net.Conn) {
	s.connsMu.Lock()
	delete(s.open, conn)
	s.connsMu.Unlock()
	s.met.Connections.Add(-1)
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// provision prepares the wrapped target for the configured parallelism,
// once across every connection.
func (s *Server) provision() error {
	s.provisionOnce.Do(func() {
		if s.Workers <= 0 {
			s.Workers = 1
		}
		s.sem = make(chan struct{}, s.Workers)
		s.met = obs.NewWorkerMetrics(s.Obs.Registry())
		s.Obs.Prog().Begin(0, 0)
		s.header, s.dict = apispec.Default(), dict.Builtin()
		s.provisionErr = s.Target.Provision(s.Workers)
	})
	return s.provisionErr
}

// Serve accepts connections until the listener closes, handling each in
// its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.provision(); err != nil {
		return fmt.Errorf("remote: provision %s: %w", s.Target.Name(), err)
	}
	s.connsMu.Lock()
	s.ln = ln
	s.connsMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.logf("connection from %s", conn.RemoteAddr())
		// Track before handing off so a Shutdown between accept and the
		// goroutine's first read still reaches this connection.
		s.track(conn)
		s.connWG.Add(1)
		go func(conn net.Conn) {
			defer s.connWG.Done()
			s.handleConn(conn)
		}(conn)
	}
}

// Shutdown drains the server gracefully: the listener stops accepting,
// every open connection stops reading new frames (its pending read is
// unblocked by an immediate read deadline), in-flight requests finish
// executing and write their responses, and only then do the connections
// close. It returns once every connection handler has exited. Clients
// treat the subsequent connection loss like any dead worker: unanswered
// leases retry on another worker.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	s.connsMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.open {
		conn.SetReadDeadline(time.Now())
	}
	s.connsMu.Unlock()
	s.connWG.Wait()
}

// Draining reports whether Shutdown has begun — how a serving loop
// distinguishes a graceful drain's listener-closed error from a fault.
func (s *Server) Draining() bool { return s.draining.Load() }

// serverConn is one accepted connection's write side: executors'
// responses interleave whole frames, never bytes.
type serverConn struct {
	conn net.Conn
	wmu  sync.Mutex
}

// job is one decoded request handed from a connection's reader to its
// executors; err is set when the frame did not decode.
type job struct {
	req execRequest
	err error
}

// handleConn speaks the protocol on one connection: hello, then a loop
// reading pipelined lease requests and handing them to the connection's
// executors until the peer hangs up (or Shutdown breaks the read loop;
// requests already read still answer). Executors start on demand, up to
// Workers, and exit with the connection.
func (s *Server) handleConn(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	hello, err := json.Marshal(Hello{Proto: ProtoVersion, Target: s.Target.Name()})
	if err != nil {
		return
	}
	if err := WriteFrame(conn, hello); err != nil {
		return
	}
	s.met.WireTx.Add(uint64(len(hello)) + frameOverhead)

	sc := &serverConn{conn: conn}
	jobs := make(chan job)
	var wg sync.WaitGroup
	defer func() {
		close(jobs)
		wg.Wait()
	}()
	executors := 0
	br := bufio.NewReader(conn)
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = payload
		s.met.WireRx.Add(uint64(len(payload)) + frameOverhead)
		req, err := decodeRequest(payload, s.header)
		j := job{req: req, err: err}
		select {
		case jobs <- j: // an idle executor took it
			continue
		default:
		}
		if executors < s.Workers {
			executors++
			wg.Add(1)
			go func() {
				defer wg.Done()
				var frame []byte
				for j := range jobs {
					frame = s.handleRequest(sc, j, frame)
				}
			}()
		}
		jobs <- j
	}
}

// handleRequest executes one lease and writes its response frame,
// building it in frame's storage; it returns the storage for reuse.
func (s *Server) handleRequest(sc *serverConn, j job, frame []byte) []byte {
	if s.ExitAfter > 0 && int(s.executed.Load()) >= s.ExitAfter {
		// Already dying: a dead worker answers nothing.
		return frame
	}
	req := j.req
	if j.err != nil {
		s.logf("refusing request: %v", j.err)
		return s.respond(sc, frame, respHeader{ID: req.ID, Err: j.err.Error()}, nil, nil)
	}
	spec := req.Spec
	spec.Header, spec.Dict = s.header, s.dict

	s.sem <- struct{}{}
	var results []target.Result
	if be, ok := s.Target.(target.BatchExecutor); ok {
		slot := s.Target.Acquire()
		results = be.ExecuteBatch(slot, req.Tests, spec)
		s.Target.Release(slot)
	} else {
		results = make([]target.Result, 0, len(req.Tests))
		for _, ds := range req.Tests {
			slot := s.Target.Acquire()
			results = append(results, s.Target.Execute(slot, ds, spec))
			s.Target.Release(slot)
		}
	}
	<-s.sem
	s.met.Executed.Add(uint64(len(results)))
	s.Obs.Prog().Done(len(results))

	if s.ExitAfter > 0 {
		if total := s.executed.Add(int64(len(req.Tests))); int(total) >= s.ExitAfter {
			// Die without responding: the client sees the connection drop
			// with this lease in flight and must re-execute it elsewhere.
			s.exitOnce.Do(s.OnExit)
			return frame
		}
	}
	return s.respond(sc, frame, respHeader{ID: req.ID, N: len(results)}, req.Tests, results)
}

// respond writes one response frame — the header, then one raw-codec
// record line per result, keyed by its test's campaign position — with
// one write, and returns the frame storage for reuse.
func (s *Server) respond(sc *serverConn, frame []byte, hdr respHeader, tests []testgen.Dataset, results []target.Result) []byte {
	frame = appendRespHeader(beginFrame(frame), hdr)
	for i, r := range results {
		rec := campaign.ToRecord(tests[i].Index, r)
		var err error
		if frame, err = (campaign.Codec{}).AppendEncode(frame, &rec); err != nil {
			return s.respond(sc, frame, respHeader{ID: hdr.ID, Err: fmt.Sprintf("record %d: %v", i, err)}, nil, nil)
		}
		frame = append(frame, '\n')
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if err := sendFrame(sc.conn, frame); err != nil {
		s.logf("response %d: %v", hdr.ID, err)
		return frame
	}
	s.met.WireTx.Add(uint64(len(frame)))
	return frame
}
