package remote

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/inject"
	"xmrobust/internal/obs"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// httpGet fetches one ops endpoint and returns the body.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// promValue extracts one unlabelled (or exactly-spelled) series value
// from an exposition body.
func promValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", series, body)
	return 0
}

// promSum sums every series of one family (label sets vary).
func promSum(t *testing.T, body, family string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		_, rest, ok := strings.Cut(line, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("family %s: bad line %q", family, line)
		}
		sum += v
	}
	return sum
}

// TestObsSmoke is the end-to-end observability exercise the obs-smoke CI
// target runs: a fixed-seed SEU campaign fanned over two loopback
// workers with the full spine attached — engine metrics, lease
// coordinator, remote client, worker servers, injection outcomes — its
// /metrics, /healthz and /progress endpoints scraped over HTTP while it
// runs. Two invariants: every layer reported non-zero series, and the
// instrumented distributed campaign's merged log is byte-identical to
// the plain in-process run.
func TestObsSmoke(t *testing.T) {
	const seed = 5
	plan := testPlan(t, "rand:400", seed, "XM_set_timer", "XM_get_time", "XM_get_system_status", "XM_reset_partition")
	tests := plan.Len() // rand:N clamps to the restricted value space
	if tests == 0 {
		t.Fatal("empty plan")
	}

	run := func(tgtSpec string, o *obs.Obs) []byte {
		dir := t.TempDir()
		eo := campaign.EngineOptions{
			Options:   campaign.Options{Workers: 4, Target: tgtSpec, Seed: seed},
			ShardDir:  dir,
			BatchSize: 4,
			Obs:       o,
		}
		stats, err := campaign.StreamPlan(plan, eo, nil)
		if err != nil {
			t.Fatalf("stream on %s: %v", tgtSpec, err)
		}
		if stats.Executed != plan.Len() {
			t.Fatalf("stream on %s executed %d of %d", tgtSpec, stats.Executed, plan.Len())
		}
		var buf bytes.Buffer
		if _, err := campaign.MergeShards(dir, &buf); err != nil {
			t.Fatalf("merge: %v", err)
		}
		return buf.Bytes()
	}
	local := run("inject:sim", nil)

	// The coordinator and the worker fleet each get their own handle, as
	// separate processes would: wo aggregates both loopback workers.
	o := obs.New()
	wo := obs.New()
	params := inject.Params{Seed: seed}
	worker := func() string {
		backend, err := target.New("inject:sim", target.Config{Inject: params, Obs: wo})
		if err != nil {
			t.Fatal(err)
		}
		srv := &Server{Target: backend, Workers: 2, Obs: wo}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return addr
	}
	addrs := worker() + "," + worker()

	ops, err := obs.ListenAndServe("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	base := "http://" + ops.Addr()

	// Scrape concurrently while the campaign runs; correctness asserts
	// happen on the final state so fast campaigns cannot flake this.
	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
				resp, err := http.Get(base + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					n++
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	remoteLog := run("remote:"+addrs, o)
	close(stop)
	if n := <-scraped; n == 0 {
		t.Error("no /metrics scrape succeeded during the campaign")
	}

	if !bytes.Equal(local, remoteLog) {
		t.Errorf("instrumented remote log differs from plain local log: %d vs %d bytes",
			len(remoteLog), len(local))
	}

	// Coordinator-side series over HTTP.
	metrics := httpGet(t, base+"/metrics")
	if v := promValue(t, metrics, "xm_engine_tests_executed_total"); int(v) != tests {
		t.Errorf("xm_engine_tests_executed_total = %v, want %d", v, tests)
	}
	issued := promValue(t, metrics, "xm_lease_issued_total")
	completed := promValue(t, metrics, "xm_lease_completed_total")
	if issued == 0 || issued != completed {
		t.Errorf("leases issued=%v completed=%v, want equal and non-zero", issued, completed)
	}
	if v := promSum(t, metrics, "xm_remote_dials_total"); v == 0 {
		t.Error("xm_remote_dials_total is zero")
	}
	if v := promSum(t, metrics, "xm_remote_wire_bytes_total"); v == 0 {
		t.Error("xm_remote_wire_bytes_total is zero")
	}

	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/healthz")), &health); err != nil || health.Status != "ok" {
		t.Errorf("/healthz = %+v, err %v", health, err)
	}
	var prog obs.Snapshot
	if err := json.Unmarshal([]byte(httpGet(t, base+"/progress")), &prog); err != nil {
		t.Fatalf("/progress: %v", err)
	}
	if int(prog.Done) != tests || int(prog.Total) != tests {
		t.Errorf("/progress = %d/%d, want %d/%d", prog.Done, prog.Total, tests, tests)
	}

	// Worker-side series: both loopback workers share wo, so the fleet's
	// executed count covers the whole campaign (re-executions would only
	// add to it).
	var wb strings.Builder
	if err := wo.Registry().WriteProm(&wb); err != nil {
		t.Fatal(err)
	}
	wmetrics := wb.String()
	if v := promValue(t, wmetrics, "xm_worker_tests_executed_total"); int(v) < tests {
		t.Errorf("xm_worker_tests_executed_total = %v, want >= %d", v, tests)
	}
	// Only applied flips tally an outcome — a scheduled flip can still
	// miss (land beyond the test's execution), so the sum is positive but
	// below the test count.
	if v := promSum(t, wmetrics, "xm_inject_outcomes_total"); v == 0 {
		t.Error("xm_inject_outcomes_total is zero")
	}
}

// gateTarget blocks every Execute on a channel — the probe for draining
// in-flight work through a graceful shutdown. Each Execute signals
// started without waiting for a reader, so a lease of several tests
// runs to its end once the gate opens.
type gateTarget struct {
	started chan struct{}
	gate    chan struct{}
}

func (g *gateTarget) Name() string         { return "gate" }
func (g *gateTarget) Provision(int) error  { return nil }
func (g *gateTarget) Acquire() target.Slot { return nil }
func (g *gateTarget) Release(target.Slot)  {}
func (g *gateTarget) Execute(_ target.Slot, _ testgen.Dataset, _ target.RunSpec) target.Result {
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.gate
	return target.Result{}
}

// TestServerGracefulShutdown pins the drain contract: Shutdown waits for
// the in-flight lease, its response still reaches the client, and only
// then does the connection close.
func TestServerGracefulShutdown(t *testing.T) {
	backend := &gateTarget{started: make(chan struct{}, 1), gate: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Target: backend, Workers: 1}
	go srv.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := readFrame(br, nil); err != nil { // hello
		t.Fatal(err)
	}
	req := execRequest{ID: 7, Tests: []testgen.Dataset{{Func: apispec.Function{Name: "XM_get_time"}}}}
	if err := WriteFrame(conn, appendRequest(nil, &req)); err != nil {
		t.Fatal(err)
	}
	<-backend.started

	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	select {
	case <-done:
		t.Fatal("Shutdown returned with a lease still executing")
	case <-time.After(50 * time.Millisecond):
	}

	close(backend.gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight lease finished")
	}

	// The drained lease's response made it out before the close.
	payload, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("in-flight response lost in shutdown: %v", err)
	}
	hdr, records, err := decodeRespHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ID != 7 || hdr.Err != "" || hdr.N != 1 || bytes.Count(records, []byte("\n")) != 1 {
		t.Errorf("response header = %+v over %d record bytes, want ID 7 with 1 record", hdr, len(records))
	}
	if _, err := readFrame(br, nil); err == nil {
		t.Error("connection still open after drain")
	}
}
