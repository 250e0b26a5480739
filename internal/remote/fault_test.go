package remote

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xmrobust/internal/campaign"
	"xmrobust/internal/obs"
	"xmrobust/internal/target"
)

// errFault is what a faulted connection returns to the worker.
var errFault = errors.New("injected connection fault")

// The faults a faultConn can carry.
const (
	dropResponse = iota // close at the n-th Write, writing nothing
	tornResponse        // write the first k bytes of the n-th Write, then close
	tornRequest         // after the first response, close once k more bytes are read
	faultKinds
)

// faultListener wraps a worker's listener and arms one fault on every
// connection it accepts. With a seed, the seed picks each connection's
// fault, in accept order, and never the connection's first response:
// every connection answers one lease before it fails. Without one,
// every connection drops its first response.
type faultListener struct {
	net.Listener
	mu  sync.Mutex
	rng *rand.Rand // nil: drop every first response
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rng == nil {
		return &faultConn{Conn: conn, kind: dropResponse, n: 2}, nil
	}
	// The hello is Write 1 and the first response Write 2.
	return &faultConn{Conn: conn, kind: l.rng.Intn(faultKinds), n: 3 + l.rng.Intn(4), k: 1 + l.rng.Intn(200)}, nil
}

// faultConn is one accepted connection carrying one fault. The worker
// reads and writes a connection from one goroutine, so its counters need
// no lock.
type faultConn struct {
	net.Conn
	kind   int
	n      int // the Write a response fault hits
	k      int // bytes a torn response writes, or a torn request lets through
	writes int
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes != c.n || c.kind == tornRequest {
		return c.Conn.Write(p)
	}
	n := 0
	if c.kind == tornResponse {
		n, _ = c.Conn.Write(p[:min(c.k, len(p)-1)])
	}
	c.Conn.Close()
	return n, errFault
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.kind != tornRequest || c.writes < 2 {
		return c.Conn.Read(p)
	}
	if c.k == 0 {
		c.Conn.Close()
		return 0, errFault
	}
	n, err := c.Conn.Read(p[:min(c.k, len(p))])
	c.k -= n
	return n, err
}

// startFaultWorker serves sim behind a faultListener and returns the
// worker's address and the function that stops it.
func startFaultWorker(t *testing.T, rng *rand.Rand) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Target: target.NewSim(target.Config{}), Workers: 2}
	go srv.Serve(&faultListener{Listener: ln, rng: rng})
	stop := func() { ln.Close(); srv.CloseConnections() }
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// TestRemoteSurvivesFaultedFrames: every connection to either worker
// fails sooner or later — a dropped response, a torn response or a torn
// request — and the client's retry still logs every position once,
// with its result and not a harness error, merging to the bytes of the
// single-process run.
func TestRemoteSurvivesFaultedFrames(t *testing.T) {
	plan := testPlan(t, "rand:40", 1, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 2, 0)

	addr1, _ := startFaultWorker(t, rand.New(rand.NewSource(1)))
	addr2, _ := startFaultWorker(t, rand.New(rand.NewSource(2)))
	dir := t.TempDir()
	o := obs.New()
	stats, err := campaign.StreamPlan(plan, campaign.EngineOptions{
		Options:   campaign.Options{Workers: 2, Target: "remote:" + addr1 + "," + addr2},
		ShardDir:  dir,
		BatchSize: 2,
		Obs:       o,
	}, nil)
	if err != nil {
		t.Fatalf("campaign over faulted connections: %v", err)
	}
	if stats.Executed != plan.Len() {
		t.Fatalf("campaign over faulted connections executed %d of %d", stats.Executed, plan.Len())
	}
	if n := loggedRecords(t, dir); n != plan.Len() {
		t.Fatalf("%d records logged for %d tests", n, plan.Len())
	}
	if got := mergeDir(t, dir); !bytes.Equal(local, got) {
		t.Fatalf("merged log over faulted connections differs from local: %d vs %d bytes", len(got), len(local))
	}
	var prom strings.Builder
	if err := o.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if v := promValue(t, prom.String(), "xm_remote_retries_total"); v == 0 {
		t.Error("xm_remote_retries_total is zero: no fault reached a lease")
	}
}

// TestRemoteFaultedFirstResponsesStopResumably: a worker that drops the
// first response on every connection fails each lease on every attempt,
// so the campaign stops with the lease abandoned and nothing logged. A
// healthy worker on the same address then resumes it to the bytes of
// the single-process run.
func TestRemoteFaultedFirstResponsesStopResumably(t *testing.T) {
	plan := testPlan(t, "rand:12", 7, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 1, 0)

	addr, stop := startFaultWorker(t, nil)
	dir := t.TempDir()
	eo := campaign.EngineOptions{
		Options:        campaign.Options{Workers: 2, Target: "remote:" + addr},
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
		BatchSize:      2,
	}
	_, err := campaign.StreamPlan(plan, eo, nil)
	if err == nil || !strings.Contains(err.Error(), "lease abandoned after 8 attempts") {
		t.Fatalf("campaign on a worker dropping every first response returned %v, want the lease abandoned", err)
	}
	if n := loggedRecords(t, dir); n != 0 {
		t.Fatalf("%d records logged from dropped responses", n)
	}

	stop()
	healthy := &Server{Target: target.NewSim(target.Config{}), Workers: 1}
	if _, err := healthy.Listen(addr); err != nil {
		t.Fatalf("restart worker on %s: %v", addr, err)
	}
	t.Cleanup(healthy.Close)
	eo.Resume = true
	if _, err := campaign.StreamPlan(plan, eo, nil); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := mergeDir(t, dir); !bytes.Equal(local, got) {
		t.Fatalf("resumed log differs from local: %d vs %d bytes", len(got), len(local))
	}
}
