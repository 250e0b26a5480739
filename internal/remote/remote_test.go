package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/dict"
	"xmrobust/internal/obs"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// testPlan builds a small deterministic plan over a couple of quick
// hypercalls.
func testPlan(t *testing.T, spec string, seed int64, funcs ...string) testgen.Plan {
	t.Helper()
	keep := map[string]bool{}
	for _, f := range funcs {
		keep[f] = true
	}
	h := apispec.Default()
	for i := range h.Functions {
		if !keep[h.Functions[i].Name] {
			h.Functions[i].Tested = "NO"
		}
	}
	p, err := testgen.NewPlan(spec, h, dict.Builtin(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// startWorker serves tgt on a loopback listener and returns its address
// and server (for death simulation).
func startWorker(t *testing.T, tgt string, workers, exitAfter int) (string, *Server, net.Listener) {
	t.Helper()
	backend, err := target.New(tgt, target.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Target: backend, Workers: workers, ExitAfter: exitAfter}
	if exitAfter > 0 {
		srv.OnExit = func() {
			// The in-process stand-in for os.Exit: drop the listener and
			// every live connection, leaving in-flight leases unanswered.
			ln.Close()
			srv.CloseConnections()
		}
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); srv.CloseConnections() })
	return ln.Addr().String(), srv, ln
}

// mergedLog runs the plan through the streaming engine against the given
// target spec and returns the merged campaign log bytes.
func mergedLog(t *testing.T, plan testgen.Plan, tgtSpec string, workers, batch int) []byte {
	t.Helper()
	dir := t.TempDir()
	eo := campaign.EngineOptions{
		Options:   campaign.Options{Workers: workers, Target: tgtSpec},
		ShardDir:  dir,
		BatchSize: batch,
	}
	stats, err := campaign.StreamPlan(plan, eo, nil)
	if err != nil {
		t.Fatalf("stream on %s: %v", tgtSpec, err)
	}
	if stats.Executed != plan.Len() {
		t.Fatalf("stream on %s executed %d of %d", tgtSpec, stats.Executed, plan.Len())
	}
	var buf bytes.Buffer
	n, err := campaign.MergeShards(dir, &buf)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if n != plan.Len() {
		t.Fatalf("merge on %s: %d records, want %d", tgtSpec, n, plan.Len())
	}
	return buf.Bytes()
}

// loggedRecords counts the records in a campaign's shards and fails the
// test on any that carries a harness error: a lease the client gave up
// on, or one a faulted connection cut, must leave no record, and one
// that ran must leave its result, not a run_err.
func loggedRecords(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	if err := campaign.ScanShards(dir, func(rec campaign.JSONRecord) error {
		if rec.RunErr != "" {
			return fmt.Errorf("record %d carries run_err %q", rec.Seq, rec.RunErr)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// mergeDir merges a campaign's shards and returns the log bytes.
func mergeDir(t *testing.T, dir string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := campaign.MergeShards(dir, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameRoundTrip pins the length-prefixed framing, read the way
// both ends read it: through one buffered reader, into reused storage.
func TestFrameRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	payloads := [][]byte{bytes.Repeat([]byte{0xAB}, 70000), []byte("hello"), {}, bytes.Repeat([]byte{0xCD}, 70001)}
	for _, p := range payloads {
		if err := WriteFrame(&wire, p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&wire)
	var buf []byte
	for i, want := range payloads {
		got, err := readFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(want))
		}
		// A frame that fits the storage passed in is read into it.
		if fits := len(want) > 0 && cap(buf) >= len(want); fits && &got[0] != &buf[:1][0] {
			t.Errorf("frame %d: read into fresh storage, not the %d-byte buffer passed in", i, cap(buf))
		}
		buf = got
	}
	if _, err := readFrame(br, buf); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want EOF", err)
	}
	// A corrupt length prefix must be refused, not allocated.
	if _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})), nil); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// TestRemoteMergeByteIdentical: a campaign fanned across two loopback
// workers merges to exactly the bytes of the same campaign executed
// in-process — the tentpole invariant of the distributed path.
func TestRemoteMergeByteIdentical(t *testing.T) {
	plan := testPlan(t, "rand:40", 1, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 2, 0)

	addr1, _, _ := startWorker(t, "sim", 2, 0)
	addr2, _, _ := startWorker(t, "sim", 2, 0)
	remote := mergedLog(t, plan, "remote:"+addr1+","+addr2, 4, 3)

	if !bytes.Equal(local, remote) {
		t.Fatalf("remote merged log differs from local: %d vs %d bytes", len(remote), len(local))
	}
}

// countingSim is the sim backend counting the ExecuteBatch calls that
// reach it.
type countingSim struct {
	*target.Sim
	batches atomic.Int64
}

func (c *countingSim) ExecuteBatch(slot target.Slot, batch []testgen.Dataset, spec target.RunSpec) []target.Result {
	c.batches.Add(1)
	return c.Sim.ExecuteBatch(slot, batch, spec)
}

// TestRemoteDefaultLease: at the default lease a rand:40 campaign (35
// distinct tests over two hypercalls) on one loopback worker travels as
// ⌈35/16⌉ = 3 requests, which reach the worker's target as 3
// ExecuteBatch calls, while the worker's pool still serves one machine
// per test. The merged log is the bytes of the local run.
func TestRemoteDefaultLease(t *testing.T) {
	plan := testPlan(t, "rand:40", 1, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 2, 0)

	sim := &countingSim{Sim: target.NewSim(target.Config{})}
	srv := &Server{Target: sim, Workers: 2}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	remote := mergedLog(t, plan, "remote:"+addr, 2, 0)

	if !bytes.Equal(local, remote) {
		t.Fatalf("remote merged log differs from local: %d vs %d bytes", len(remote), len(local))
	}
	n := plan.Len()
	if got := sim.batches.Load(); got != 3 {
		t.Errorf("%d tests reached the worker's target as %d ExecuteBatch calls, want 3", n, got)
	}
	if ps := sim.PoolStats(); ps.Allocated+ps.Reused != uint64(n) {
		t.Errorf("the worker's pool served %d acquires for %d tests, want one per test", ps.Allocated+ps.Reused, n)
	}
}

// TestRemoteWorkerDeathHandsBack: a worker dying mid-lease loses nothing
// — the client retries its unanswered leases on the surviving worker
// while the engine still holds them, and the merged log still matches
// the single-process run byte for byte.
func TestRemoteWorkerDeathHandsBack(t *testing.T) {
	plan := testPlan(t, "rand:30", 7, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 1, 0)

	dying, _, _ := startWorker(t, "sim", 1, 5)
	healthy, _, _ := startWorker(t, "sim", 2, 0)
	remote := mergedLog(t, plan, "remote:"+dying+","+healthy, 4, 2)

	if !bytes.Equal(local, remote) {
		t.Fatalf("merged log after worker death differs from local: %d vs %d bytes", len(remote), len(local))
	}
}

// TestRemoteFleetOutageStopsResumably: when the whole fleet dies, the
// leases in flight come back not executed — no record carries a harness
// error, so no shard record claims a test that never ran — and the campaign
// stops with the dial failure. A worker back on the same address then
// resumes the campaign to the bytes of the single-process run.
func TestRemoteFleetOutageStopsResumably(t *testing.T) {
	plan := testPlan(t, "rand:12", 7, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 1, 0)

	addr, _, _ := startWorker(t, "sim", 1, 5)
	dir := t.TempDir()
	eo := campaign.EngineOptions{
		Options:        campaign.Options{Workers: 2, Target: "remote:" + addr},
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
	}
	stats, err := campaign.StreamPlan(plan, eo, nil)
	if err == nil || !strings.Contains(err.Error(), "dial") {
		t.Fatalf("campaign on a dead fleet returned %v, want the dial failure", err)
	}
	if stats.Executed >= plan.Len() {
		t.Fatalf("campaign on a dead fleet executed all %d tests", stats.Executed)
	}
	if err := campaign.ScanShards(dir, func(rec campaign.JSONRecord) error {
		if rec.RunErr != "" {
			return fmt.Errorf("record %d carries run_err %q", rec.Seq, rec.RunErr)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	srv := &Server{Target: target.NewSim(target.Config{}), Workers: 1}
	if _, err := srv.Listen(addr); err != nil {
		t.Fatalf("restart worker on %s: %v", addr, err)
	}
	t.Cleanup(srv.Close)
	eo.Resume = true
	resumed, err := campaign.StreamPlan(plan, eo, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed.Skipped != stats.Executed || resumed.Skipped+resumed.Executed != plan.Len() {
		t.Fatalf("resume skipped %d / executed %d after a %d-test stopped leg",
			resumed.Skipped, resumed.Executed, stats.Executed)
	}
	var buf bytes.Buffer
	if _, err := campaign.MergeShards(dir, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, buf.Bytes()) {
		t.Fatalf("resumed log differs from local: %d vs %d bytes", buf.Len(), len(local))
	}
}

// TestRemoteRefusesMixedFleet: workers advertising different targets
// cannot form one fleet — their records would splice two backends' logs
// into one campaign.
func TestRemoteRefusesMixedFleet(t *testing.T) {
	addr1, _, _ := startWorker(t, "sim", 1, 0)
	addr2, _, _ := startWorker(t, "phantom", 1, 0)
	tgt, err := target.New("remote:"+addr1+","+addr2, target.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Provision(2); err == nil {
		t.Fatal("mixed-target fleet accepted")
	}
}

// TestRemoteRefusesEmptyFleet: a remote spec without addresses, and a
// fleet with no reachable worker, both fail loudly at construction or
// provision time.
func TestRemoteRefusesEmptyFleet(t *testing.T) {
	if _, err := target.New("remote:", target.Config{}); err == nil {
		t.Fatal("empty address list accepted")
	}
	tgt, err := target.New("remote:127.0.0.1:1", target.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Provision(1); err == nil {
		t.Fatal("unreachable fleet accepted")
	}
}

// TestRemoteRefusesMismatchedResponse: a worker that answers each
// request with the next request's ID is refused, round trip after round
// trip, until the lease's attempts run out and the campaign stops with
// nothing logged. The campaign runs under a deadline, so a client that
// waits for a response matching its request fails the test instead of
// hanging it.
func TestRemoteRefusesMismatchedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	h := apispec.Default()
	answer := func(conn net.Conn) {
		defer conn.Close()
		hello, _ := json.Marshal(Hello{Proto: ProtoVersion, Target: target.SimName})
		if WriteFrame(conn, hello) != nil {
			return
		}
		br := bufio.NewReader(conn)
		for {
			payload, err := readFrame(br, nil)
			if err != nil {
				return
			}
			req, err := decodeRequest(payload, h)
			if err != nil {
				return
			}
			// A well-formed response, one record per test, carrying the
			// ID of the request after this one.
			frame := appendRespHeader(nil, respHeader{ID: req.ID + 1, N: len(req.Tests)})
			for _, ds := range req.Tests {
				rec := campaign.ToRecord(ds.Index, target.Result{Dataset: ds})
				frame, _ = campaign.Codec{}.AppendEncode(frame, &rec)
				frame = append(frame, '\n')
			}
			if WriteFrame(conn, frame) != nil {
				return
			}
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go answer(conn)
		}
	}()

	plan := testPlan(t, "rand:4", 1, "XM_set_timer", "XM_get_time")
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = campaign.StreamPlan(plan, campaign.EngineOptions{
		Options:  campaign.Options{Workers: 1, Target: "remote:" + ln.Addr().String()},
		Ctx:      ctx,
		ShardDir: dir,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "lease abandoned after 8 attempts") ||
		!strings.Contains(err.Error(), "response to request") {
		t.Fatalf("campaign against a worker answering other requests returned %v, want the lease abandoned over a response to another request", err)
	}
	if n := loggedRecords(t, dir); n != 0 {
		t.Fatalf("%d records logged from responses to other requests", n)
	}
}

// TestRemoteCancelWithLeaseInFlight: cancelling a campaign while its only
// lease executes on a worker returns context.Canceled without waiting
// for the lease, and logs nothing. Once the lease finishes, the worker
// lets the cancelled connection go, and a resume on a plain sim worker at
// the same address merges to the bytes of the single-process run.
func TestRemoteCancelWithLeaseInFlight(t *testing.T) {
	plan := testPlan(t, "rand:12", 7, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 1, 0)

	gate := &gateTarget{started: make(chan struct{}, 1), gate: make(chan struct{})}
	srv := &Server{Target: gate, Workers: 1, Obs: obs.New()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eo := campaign.EngineOptions{
		Options:        campaign.Options{Workers: 1, Target: "remote:" + addr},
		Ctx:            ctx,
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
	}
	type outcome struct {
		stats campaign.EngineStats
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		stats, err := campaign.StreamPlan(plan, eo, nil)
		done <- outcome{stats, err}
	}()
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the campaign's lease never reached the worker")
	}
	cancel()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled campaign waited for its lease in flight")
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", out.err)
	}
	if out.stats.Executed != 0 {
		t.Fatalf("cancelled campaign executed %d tests, want 0", out.stats.Executed)
	}
	if n := loggedRecords(t, dir); n != 0 {
		t.Fatalf("cancelled campaign logged %d records", n)
	}

	close(gate.gate)
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.Connections.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.met.Connections.Value(); n != 0 {
		t.Fatalf("worker reports %d open connections after the cancelled lease finished, want 0", n)
	}

	srv.Close()
	healthy := &Server{Target: target.NewSim(target.Config{}), Workers: 1}
	if _, err := healthy.Listen(addr); err != nil {
		t.Fatalf("restart worker on %s: %v", addr, err)
	}
	t.Cleanup(healthy.Close)
	eo.Ctx, eo.Resume = nil, true
	if _, err := campaign.StreamPlan(plan, eo, nil); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := mergeDir(t, dir); !bytes.Equal(local, got) {
		t.Fatalf("resumed log differs from local: %d vs %d bytes", len(got), len(local))
	}
}

// TestStreamPlanClosesRemoteConnections: a campaign closes the remote
// target it built, so once StreamPlan returns no worker connection
// outlives the campaign.
func TestStreamPlanClosesRemoteConnections(t *testing.T) {
	plan := testPlan(t, "rand:20", 3, "XM_set_timer", "XM_get_time")
	var (
		servers []*Server
		addrs   []string
	)
	for range 2 {
		srv := &Server{Target: target.NewSim(target.Config{}), Workers: 2, Obs: obs.New()}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers, addrs = append(servers, srv), append(addrs, addr)
	}
	mergedLog(t, plan, "remote:"+strings.Join(addrs, ","), 2, 0)

	for i, srv := range servers {
		deadline := time.Now().Add(5 * time.Second)
		for srv.met.Connections.Value() != 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := srv.met.Connections.Value(); n != 0 {
			t.Errorf("worker %d reports %d open connections after the campaign returned, want 0", i, n)
		}
	}
}
