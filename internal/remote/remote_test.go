package remote

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
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

// TestWorkerTarget pins the hello discovery surface.
func TestWorkerTarget(t *testing.T) {
	addr, _, _ := startWorker(t, "phantom", 1, 0)
	got, err := WorkerTarget(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != "phantom" {
		t.Fatalf("hello target %q, want %q", got, "phantom")
	}
}

// TestStreamPlanClosesRemoteConnections: a campaign closes the remote
// target it built, so once StreamPlan returns no worker connection (and
// no client read loop behind it) outlives the campaign.
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
