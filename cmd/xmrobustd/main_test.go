package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"xmrobust/pkg/xmrobust"
)

// daemon is a running xmrobustd process plus its parsed base URL.
type daemon struct {
	cmd  *exec.Cmd
	base string
	data string
}

// startDaemon builds the binary, launches it on a free port with a
// fresh data directory, and parses the readiness line for the address.
func startDaemon(t *testing.T) *daemon {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "xmrobustd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building xmrobustd: %v", err)
	}

	data := filepath.Join(dir, "data")
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-data", data, "-quiet")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	// The first stdout line is the launcher-facing readiness line:
	// "xmrobustd: listening on ADDR data=DIR".
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("daemon exited before its readiness line: %v", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[1] != "listening" {
		t.Fatalf("unexpected readiness line %q", line)
	}
	return &daemon{cmd: cmd, base: "http://" + fields[3], data: data}
}

type status struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Total    int    `json:"total"`
	Executed int    `json:"executed"`
	Dir      string `json:"dir"`
	Error    string `json:"error"`
}

func terminal(state string) bool {
	return state == "done" || state == "canceled" || state == "failed"
}

func (d *daemon) submit(t *testing.T, body string) status {
	t.Helper()
	resp, err := http.Post(d.base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/campaigns: status %d: %s", resp.StatusCode, b)
	}
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (d *daemon) status(t *testing.T, id string) status {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (d *daemon) waitFor(t *testing.T, id string, cond func(status) bool) status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := d.status(t, id)
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in state %s (%d/%d)", id, st.State, st.Executed, st.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// streamRecords subscribes to the campaign's SSE feed and reassembles
// the record events, sorted by seq, into campaign-log bytes.
func (d *daemon) streamRecords(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	records := map[int][]byte{}
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	kind, ended := "", false
	for !ended {
		line, err := br.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch kind {
			case "record":
				var hdr struct {
					Seq int `json:"seq"`
				}
				if err := json.Unmarshal([]byte(data), &hdr); err != nil {
					t.Fatalf("bad record event: %v\n%s", err, data)
				}
				records[hdr.Seq] = []byte(data)
			case "end":
				ended = true
			}
		}
	}
	if !ended {
		t.Fatal("SSE stream closed without an end event")
	}
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

func (d *daemon) log(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/campaigns/" + id + "/log")
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

// libraryLog runs the same campaign through pkg/xmrobust into its own
// checkpoint directory and returns the merged log.
func libraryLog(t *testing.T, opts ...xmrobust.Option) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := xmrobust.Run(append(opts, xmrobust.WithCheckpoint(dir))...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := xmrobust.MergeLog(dir, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonSmoke is the end-to-end acceptance check: a real xmrobustd
// process, a fixed-seed inject:sim campaign submitted over HTTP whose
// SSE stream and merged log are byte-identical to a pkg/xmrobust run,
// a second campaign cancelled mid-run whose checkpoint the library
// resumes to the uninterrupted bytes, and a clean SIGTERM drain.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon binary")
	}
	d := startDaemon(t)

	// Fixed-seed campaign over HTTP == library run, byte for byte.
	st := d.submit(t, `{"plan":"rand:400","target":"inject:sim","seed":3,"workers":2,"inject_rate":0.5}`)
	if st.Total != 400 {
		t.Fatalf("campaign total %d, want 400", st.Total)
	}
	stream := d.streamRecords(t, st.ID)
	final := d.waitFor(t, st.ID, func(s status) bool { return terminal(s.State) })
	if final.State != "done" {
		t.Fatalf("campaign ended %s (%s)", final.State, final.Error)
	}
	httpLog := d.log(t, st.ID)
	if !bytes.Equal(stream, httpLog) {
		t.Fatal("SSE record stream differs from the merged log")
	}
	ref := libraryLog(t,
		xmrobust.WithPlan("rand:400"), xmrobust.WithTarget("inject:sim"),
		xmrobust.WithSeed(3), xmrobust.WithWorkers(2),
		xmrobust.WithInjection(0.5))
	if !bytes.Equal(httpLog, ref) {
		t.Fatalf("daemon log (%d bytes) differs from the library run (%d bytes)",
			len(httpLog), len(ref))
	}

	// DELETE mid-run leaves a checkpoint the library resumes to the
	// same bytes as an uninterrupted run. At 100 major frames per test
	// the campaign runs for about 0.3 s on two workers, many times
	// waitFor's 20 ms poll, so the DELETE sent after 20 executed tests
	// lands mid-run.
	st2 := d.submit(t, `{"plan":"rand:4000","target":"sim","seed":11,"workers":2,"mafs":100}`)
	d.waitFor(t, st2.ID, func(s status) bool { return s.Executed >= 20 })
	req, _ := http.NewRequest(http.MethodDelete, d.base+"/v1/campaigns/"+st2.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	cancelled := d.waitFor(t, st2.ID, func(s status) bool { return terminal(s.State) })
	if cancelled.State != "canceled" {
		t.Fatalf("cancelled campaign settled as %s (%s)", cancelled.State, cancelled.Error)
	}
	if cancelled.Executed >= cancelled.Total {
		t.Fatal("campaign finished before the cancel landed; nothing was resumed")
	}
	resumeOpts := []xmrobust.Option{
		xmrobust.WithPlan("rand:4000"), xmrobust.WithTarget("sim"),
		xmrobust.WithSeed(11), xmrobust.WithWorkers(2), xmrobust.WithMAFs(100),
	}
	if _, err := xmrobust.Run(append(resumeOpts,
		xmrobust.WithCheckpoint(cancelled.Dir), xmrobust.WithResume())...); err != nil {
		t.Fatalf("resuming the daemon's checkpoint: %v", err)
	}
	var resumed bytes.Buffer
	if _, err := xmrobust.MergeLog(cancelled.Dir, &resumed); err != nil {
		t.Fatal(err)
	}
	ref2 := libraryLog(t, resumeOpts...)
	if !bytes.Equal(resumed.Bytes(), ref2) {
		t.Fatal("cancelled-then-resumed log differs from the uninterrupted run")
	}

	// SIGTERM drains: the process exits 0 on its own.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit within 60s of SIGTERM")
	}
}
