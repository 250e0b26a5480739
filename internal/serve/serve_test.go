package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"xmrobust/internal/campaign"
	"xmrobust/internal/inject"
	"xmrobust/internal/serve"
	"xmrobust/internal/store"
)

// newService starts a campaign service over httptest.
func newService(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submit POSTs a submission and decodes the created status.
func submit(t *testing.T, base string, sub serve.Submission) serve.Status {
	t.Helper()
	st, code := trySubmit(t, base, sub)
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns: status %d", code)
	}
	return st
}

func trySubmit(t *testing.T, base string, sub serve.Submission) (serve.Status, int) {
	t.Helper()
	body, _ := json.Marshal(sub)
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Status
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// getStatus fetches one campaign's status.
func getStatus(t *testing.T, base, id string) serve.Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET campaign %s: status %d", id, resp.StatusCode)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitFor polls the campaign until cond holds (fatal after 60s).
func waitFor(t *testing.T, base, id string, cond func(serve.Status) bool) serve.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, base, id)
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached the awaited condition (state %s, %d/%d)",
				id, st.State, st.Executed, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readSSE consumes a Server-Sent Events body, invoking fn per event
// until fn returns false or the stream ends.
func readSSE(t *testing.T, r io.Reader, fn func(kind string, data []byte) bool) {
	t.Helper()
	br := bufio.NewReaderSize(r, 1<<20)
	var kind string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if !fn(kind, []byte(strings.TrimPrefix(line, "data: "))) {
				return
			}
		}
	}
}

// collectStream subscribes to a campaign's event stream and collects
// every record line (keyed by seq) until the end event.
func collectStream(t *testing.T, base, id string) (map[int][]byte, serve.Status) {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	records := map[int][]byte{}
	var last serve.Status
	ended := false
	readSSE(t, resp.Body, func(kind string, data []byte) bool {
		switch kind {
		case "record":
			var hdr struct {
				Seq int `json:"seq"`
			}
			if err := json.Unmarshal(data, &hdr); err != nil {
				t.Fatalf("record event is not a JSON record: %v\n%s", err, data)
			}
			if prev, dup := records[hdr.Seq]; dup && !bytes.Equal(prev, data) {
				t.Fatalf("seq %d delivered twice with different bytes", hdr.Seq)
			}
			records[hdr.Seq] = append([]byte(nil), data...)
		case "status":
			if err := json.Unmarshal(data, &last); err != nil {
				t.Fatal(err)
			}
		case "end":
			ended = true
			return false
		}
		return true
	})
	if !ended {
		t.Fatal("event stream closed without an end event")
	}
	return records, last
}

// mergeRecords renders collected stream records as the campaign-order
// JSON Lines log.
func mergeRecords(records map[int][]byte) []byte {
	seqs := make([]int, 0, len(records))
	for seq := range records {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	var buf bytes.Buffer
	for _, seq := range seqs {
		buf.Write(records[seq])
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// getLog fetches the merged campaign log over HTTP.
func getLog(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// libraryRun executes the same campaign through the engine directly and
// returns its merged log — the reference the HTTP path must match byte
// for byte.
func libraryRun(t *testing.T, opts campaign.Options) []byte {
	t.Helper()
	dir := t.TempDir()
	plan, ropts, err := campaign.BuildPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := plan.(io.Closer); ok {
		defer c.Close()
	}
	eo := campaign.EngineOptions{
		Options:        ropts,
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
	}
	if _, err := campaign.StreamPlan(plan, eo, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := campaign.MergeShards(dir, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServiceStreamMatchesLibrary is the tentpole invariant: a
// fixed-seed inject:sim campaign submitted over HTTP, with an SSE
// subscriber attached mid-run, yields an event stream whose records —
// replayed ones and live ones alike — reassemble into exactly the
// merged log, which in turn is byte-identical to the library run.
func TestServiceStreamMatchesLibrary(t *testing.T) {
	_, ts := newService(t, serve.Config{})
	sub := serve.Submission{
		Plan: "rand:600", Target: "inject:sim", Seed: 7,
		Workers: 2, InjectRate: 0.5,
	}
	st := submit(t, ts.URL, sub)
	if st.State != serve.StateQueued && st.State != serve.StateRunning {
		t.Fatalf("fresh campaign in state %s", st.State)
	}
	if st.Total != 600 {
		t.Fatalf("campaign total %d, want 600", st.Total)
	}

	// Attach the subscriber mid-run when the pacing allows: some
	// records then arrive by shard replay, the rest live. (On a machine
	// fast enough to finish first, the stream is pure replay — the
	// byte-identity claim is the same.)
	waitFor(t, ts.URL, st.ID, func(s serve.Status) bool {
		return s.Executed > 0 || s.State.Terminal()
	})
	records, last := collectStream(t, ts.URL, st.ID)
	if last.State != serve.StateDone {
		t.Fatalf("campaign ended %s (%s)", last.State, last.Error)
	}
	if len(records) != 600 {
		t.Fatalf("stream delivered %d distinct records, want 600", len(records))
	}

	streamLog := mergeRecords(records)
	httpLog := getLog(t, ts.URL, st.ID)
	if !bytes.Equal(streamLog, httpLog) {
		t.Fatal("SSE stream records differ from the merged log")
	}
	refLog := libraryRun(t, campaign.Options{
		Plan: "rand:600", Target: "inject:sim", Seed: 7,
		Workers: 2, Inject: inject.Params{Rate: 0.5},
	})
	if !bytes.Equal(httpLog, refLog) {
		t.Fatal("HTTP campaign log differs from the library run")
	}
}

// TestServiceCancelThenResume: DELETE mid-run cancels the campaign,
// leaving a checkpoint in the campaign directory from which an
// ordinary engine resume replays the balance — merged log
// byte-identical to an uninterrupted run. At 100 major frames per test
// the campaign runs many times waitFor's poll, so the DELETE sent after
// 20 executed tests lands mid-run.
func TestServiceCancelThenResume(t *testing.T) {
	_, ts := newService(t, serve.Config{})
	sub := serve.Submission{Plan: "rand:4000", Target: "sim", Seed: 11, Workers: 2, MAFs: 100}
	st := submit(t, ts.URL, sub)

	waitFor(t, ts.URL, st.ID, func(s serve.Status) bool { return s.Executed >= 20 })
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	final := waitFor(t, ts.URL, st.ID, func(s serve.Status) bool { return s.State.Terminal() })
	if final.State != serve.StateCanceled {
		t.Fatalf("cancelled campaign settled as %s (%s)", final.State, final.Error)
	}
	if final.Executed >= final.Total {
		t.Fatal("campaign ran to completion; DELETE cancelled nothing")
	}

	// Resume the service's campaign directory through the engine.
	opts := campaign.Options{Plan: "rand:4000", Target: "sim", Seed: 11, Workers: 2, MAFs: 100}
	plan, ropts, err := campaign.BuildPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	eo := campaign.EngineOptions{
		Options:        ropts,
		ShardDir:       final.Dir,
		CheckpointPath: filepath.Join(final.Dir, "checkpoint.jsonl"),
		Resume:         true,
	}
	stats, err := campaign.StreamPlan(plan, eo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped == 0 || stats.Executed == 0 {
		t.Fatalf("resume skipped %d / executed %d — the cancel left no usable checkpoint",
			stats.Skipped, stats.Executed)
	}
	var resumed bytes.Buffer
	if _, err := campaign.MergeShards(final.Dir, &resumed); err != nil {
		t.Fatal(err)
	}
	ref := libraryRun(t, opts)
	if !bytes.Equal(resumed.Bytes(), ref) {
		t.Fatal("cancelled-then-resumed merged log differs from the uninterrupted run")
	}
}

// TestServiceQueueLimit: a client past its live-campaign budget gets
// 429 until one of its campaigns settles.
func TestServiceQueueLimit(t *testing.T) {
	_, ts := newService(t, serve.Config{MaxPerClient: 1})
	sub := serve.Submission{Plan: "rand:50000", Target: "sim", Seed: 1, Workers: 2, Client: "ci"}
	st := submit(t, ts.URL, sub)

	if _, code := trySubmit(t, ts.URL, sub); code != http.StatusTooManyRequests {
		t.Fatalf("second live submission: status %d, want 429", code)
	}
	// Another client is unaffected by the first one's budget.
	other := sub
	other.Client = "someone-else"
	other.Plan = "rand:2"
	st2, code := trySubmit(t, ts.URL, other)
	if code != http.StatusCreated {
		t.Fatalf("other client's submission: status %d, want 201", code)
	}
	waitFor(t, ts.URL, st2.ID, func(s serve.Status) bool { return s.State.Terminal() })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, ts.URL, st.ID, func(s serve.Status) bool { return s.State.Terminal() })
	// The slot freed: the same client may submit again.
	st3, code := trySubmit(t, ts.URL, serve.Submission{Plan: "rand:2", Target: "sim", Client: "ci"})
	if code != http.StatusCreated {
		t.Fatalf("post-settle submission: status %d, want 201", code)
	}
	waitFor(t, ts.URL, st3.ID, func(s serve.Status) bool { return s.State.Terminal() })
}

// TestServiceDrain: Shutdown cancels live campaigns (resumably) and
// refuses new submissions with 503.
func TestServiceDrain(t *testing.T) {
	s, ts := newService(t, serve.Config{})
	sub := serve.Submission{Plan: "rand:4000", Target: "sim", Seed: 3, Workers: 2}
	st := submit(t, ts.URL, sub)
	waitFor(t, ts.URL, st.ID, func(s serve.Status) bool { return s.Executed >= 10 })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	final := getStatus(t, ts.URL, st.ID)
	if final.State != serve.StateCanceled {
		t.Fatalf("drained campaign settled as %s", final.State)
	}
	if _, code := trySubmit(t, ts.URL, serve.Submission{Plan: "rand:2"}); code != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: status %d, want 503", code)
	}
}

// TestServiceValidation: bad specifications are 400 at submission.
func TestServiceValidation(t *testing.T) {
	_, ts := newService(t, serve.Config{})
	for _, sub := range []serve.Submission{
		{Plan: "bogus:plan"},
		{Target: "bogus"},
		{Target: "inject:sim", InjectRate: 2},
		{Plan: "rand:2", MAFs: -5},
		{Plan: "rand:2", Workers: -3},
		{Plan: "rand:2", Batch: -7},
		{Plan: "rand:2", Limit: -1},
		{Plan: "rand:2", MAFs: campaign.MaxMAFs + 1},
		{Plan: "rand:2", Workers: campaign.MaxWorkers + 1},
		// A schedule for a target that never injects would run a
		// campaign with nothing injected.
		{Plan: "rand:2", Target: "sim", InjectRate: 0.5},
		{Plan: "rand:2", Target: "diff:sim,phantom", InjectRate: 1, InjectSites: []string{"ram"}},
	} {
		if _, code := trySubmit(t, ts.URL, sub); code != http.StatusBadRequest {
			t.Errorf("submission %+v: status %d, want 400", sub, code)
		}
	}
	// A count above its bound is refused naming the bound, before any
	// worker starts.
	for body, want := range map[string]string{
		fmt.Sprintf(`{"plan":"rand:2","mafs":%d}`, campaign.MaxMAFs+1):       fmt.Sprintf("mafs %d exceeds the maximum of %d", campaign.MaxMAFs+1, campaign.MaxMAFs),
		fmt.Sprintf(`{"plan":"rand:2","workers":%d}`, campaign.MaxWorkers+1): fmt.Sprintf("workers %d exceeds the maximum of %d", campaign.MaxWorkers+1, campaign.MaxWorkers),
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Errorf("submission %s: status %d, body %q; want 400 naming %q", body, resp.StatusCode, msg, want)
		}
	}
	// Fields the service does not know, such as a codec selector or a
	// shard count, are refused rather than silently ignored.
	for _, body := range []string{`{"plan":"rand:2","codec":"raw"}`, `{"plan":"rand:2","shards":4}`} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submission %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/c999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: status %d, want 404", resp.StatusCode)
	}
}

// TestServiceHugeBatch: a batch far larger than the campaign is a lease
// of the whole campaign, not an allocation sized by the request — the
// daemon must run it to completion rather than die.
func TestServiceHugeBatch(t *testing.T) {
	_, ts := newService(t, serve.Config{})
	st := submit(t, ts.URL, serve.Submission{Plan: "rand:2", Batch: 1 << 62})
	final := waitFor(t, ts.URL, st.ID, func(s serve.Status) bool { return s.State.Terminal() })
	if final.State != serve.StateDone || final.Executed != 2 {
		t.Fatalf("campaign ended %s with %d executed (%s), want done with 2", final.State, final.Executed, final.Error)
	}
}

// TestServiceRestartOnGlobDataDir: a restarted daemon numbers its next
// campaign above the ones its data directory holds, even when the
// directory's name holds a glob metacharacter — otherwise the new
// campaign would reuse, and overwrite, an earlier lifetime's directory.
func TestServiceRestartOnGlobDataDir(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   store.Store
		dir  string
	}{{"FS", store.Local(), filepath.Join(t.TempDir(), "data[1]")}, {"Mem", store.NewMem(), "data[1]"}} {
		t.Run(tc.name, func(t *testing.T) {
			lifetime := func() string {
				s, err := serve.New(serve.Config{DataDir: tc.dir, Store: tc.st})
				if err != nil {
					t.Fatal(err)
				}
				st, err := s.Submit(serve.Submission{Plan: "rand:2", Target: "sim", Seed: 1}, "ci")
				if err != nil {
					t.Fatal(err)
				}
				for deadline := time.Now().Add(60 * time.Second); !st.State.Terminal(); st, _ = s.Get(st.ID) {
					if time.Now().After(deadline) {
						t.Fatalf("campaign %s never settled (state %s)", st.ID, st.State)
					}
					time.Sleep(10 * time.Millisecond)
				}
				if st.State != serve.StateDone {
					t.Fatalf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
				}
				if err := s.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
				return st.ID
			}
			first, second := lifetime(), lifetime()
			if second <= first {
				t.Fatalf("the restarted daemon numbered its campaign %s after %s", second, first)
			}
		})
	}
}

// TestServiceSettledCampaignsKeepOnlyStatus: a settled campaign leaves
// only its final status behind, so the daemon's live heap grows by a
// few hundred bytes per campaign it has run, not by the campaign's job,
// hub and context. 2,000 one-test campaigns settle on the local store;
// each must still answer GET with its final state.
func TestServiceSettledCampaignsKeepOnlyStatus(t *testing.T) {
	s, err := serve.New(serve.Config{DataDir: t.TempDir(), Store: store.Local(), MaxPerClient: 4})
	if err != nil {
		t.Fatal(err)
	}
	await := func(id string, deadline time.Time) {
		for {
			st, ok := s.Get(id)
			switch {
			case !ok:
				t.Fatalf("campaign %s is unknown", id)
			case st.State.Terminal():
				if st.State != serve.StateDone || st.Executed != 1 {
					t.Fatalf("campaign %s ended %s with %d executed: %s", id, st.State, st.Executed, st.Error)
				}
				return
			case time.Now().After(deadline):
				t.Fatalf("campaign %s never settled (state %s)", id, st.State)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Campaigns go in waves of 4: the runtime keeps every goroutine it
	// ever ran at once, and 2,000 queued runners would weigh in with
	// their own. A campaign releases its client slot before it shows
	// terminal, so a budget of one wave admits the next wave at once.
	settle := func(n int) []string {
		ids := make([]string, 0, n)
		deadline := time.Now().Add(120 * time.Second)
		for len(ids) < n {
			wave := len(ids)
			for len(ids) < min(n, wave+4) {
				st, err := s.Submit(serve.Submission{Plan: "rand:1", Seed: int64(len(ids))}, "ci")
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, st.ID)
			}
			for _, id := range ids[wave:] {
				await(id, deadline)
			}
		}
		return ids
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// The first campaigns pay one-time costs: the metric series, the
	// pools' first machines.
	settle(50)
	before := liveHeap()
	const n = 2000
	ids := settle(n)
	after := liveHeap()
	perCampaign := (float64(after) - float64(before)) / n
	t.Logf("live heap %d -> %d bytes: %.0f B per settled campaign", before, after, perCampaign)
	if perCampaign > 400 {
		t.Fatalf("the live heap grew %.0f B per settled campaign, want at most 400", perCampaign)
	}
	if st, ok := s.Get(ids[0]); !ok || st.State != serve.StateDone {
		t.Fatalf("settled campaign %s: %+v, %v", ids[0], st, ok)
	}
	if got := len(s.List()); got != n+50 {
		t.Fatalf("List holds %d campaigns, want %d", got, n+50)
	}
}

// TestServiceResubmitAfterTerminal: a client at its MaxPerClient budget
// may submit again as soon as GET shows its campaign terminal, because
// a campaign releases its client's slot before its terminal state is
// visible. 2,000 rounds of one-test campaigns at a budget of one: no
// resubmission may be refused.
func TestServiceResubmitAfterTerminal(t *testing.T) {
	s, err := serve.New(serve.Config{DataDir: "data", Store: store.NewMem(), MaxPerClient: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for i := range 2000 {
		st, err := s.Submit(serve.Submission{Plan: "rand:1", Seed: int64(i)}, "ci")
		if err != nil {
			t.Fatalf("round %d: the previous campaign was terminal, and the resubmission was refused: %v", i, err)
		}
		for {
			got, ok := s.Get(st.ID)
			if !ok {
				t.Fatalf("campaign %s is unknown", st.ID)
			}
			if got.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s never settled (state %s)", st.ID, got.State)
			}
			runtime.Gosched()
		}
	}
}
