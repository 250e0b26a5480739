package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// flushCounter is a streaming ResponseWriter that counts the flushes a
// handler asks for. onFlush, when set, runs once, at the first flush.
type flushCounter struct {
	header  http.Header
	body    bytes.Buffer
	flushes int
	onFlush func()
}

func newFlushCounter() *flushCounter { return &flushCounter{header: http.Header{}} }

func (w *flushCounter) Header() http.Header         { return w.header }
func (w *flushCounter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *flushCounter) WriteHeader(int)             {}

func (w *flushCounter) Flush() {
	w.flushes++
	if f := w.onFlush; f != nil {
		w.onFlush = nil
		f()
	}
}

// frame is one event as the stream frames it.
func frame(kind string, data []byte) string {
	return "event: " + kind + "\ndata: " + string(data) + "\n\n"
}

// TestSSEWritesQueuedEventsTogether: events already queued when the
// handler reads its channel leave together. With 200 record/progress
// pairs, the final status and end queued behind the subscription, the
// body is byte for byte the per-event framing of those events, and the
// handler flushes at most 3 times instead of once per event.
func TestSSEWritesQueuedEventsTogether(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 200
	j := &job{id: "c000001", dir: filepath.Join(s.cfg.DataDir, "c000001"), hub: newHub(),
		state: StateRunning, total: pairs}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()

	want := frame("status", mustJSON(j.status()))
	var queued []event
	for i := 0; i < pairs; i++ {
		rec := event{kind: "record", data: []byte(fmt.Sprintf(`{"seq":%d,"func":"XM_get_time"}`, i)), seq: i}
		prog := event{kind: "progress", data: []byte(fmt.Sprintf(`{"done":%d,"total":%d}`, i+1, pairs)), seq: -1}
		queued = append(queued, rec, prog)
		want += frame(rec.kind, rec.data) + frame(prog.kind, prog.data)
	}
	j.state = StateDone
	done := mustJSON(j.status())
	j.state = StateRunning
	want += frame("status", done) + frame("end", endData(StateDone, ""))

	w := newFlushCounter()
	// The campaign runs to its end while the handler writes its opening
	// status: everything after it is queued by the time the live feed
	// is read.
	w.onFlush = func() {
		for _, ev := range queued {
			j.hub.broadcast(ev)
		}
		j.setState(StateDone)
		j.hub.broadcast(event{kind: "status", data: mustJSON(j.status()), seq: -1})
		j.hub.broadcast(event{kind: "end", data: endData(StateDone, ""), seq: -1})
		j.hub.close()
	}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/campaigns/c000001/events", nil))

	if got := w.body.String(); got != want {
		t.Fatalf("the stream differs from per-event framing:\n got %d bytes: %.300q\nwant %d bytes: %.300q", len(got), got, len(want), want)
	}
	if w.flushes > 3 {
		t.Fatalf("the handler flushed %d times for %d queued events, want at most 3", w.flushes, 2*pairs+2)
	}
}

// TestSSESettledReplayInOneFlush: a subscriber arriving after a
// 500-test campaign settled gets the campaign's records, byte for byte
// the merged log's lines, between its final status and end, all in one
// flush. Two workers write two shards, so the replay is not in seq
// order.
func TestSSESettledReplayInOneFlush(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(Submission{Plan: "rand:500", Seed: 5, Workers: 2}, "ci")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); !st.State.Terminal(); st, _ = s.Get(st.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never settled (state %s)", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var log bytes.Buffer
	if _, err := s.MergedLog(st.ID, &log); err != nil {
		t.Fatal(err)
	}

	w := newFlushCounter()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+st.ID+"/events", nil))

	final := mustJSON(st)
	records := map[int][]byte{}
	var kinds []string
	for _, ev := range bytes.SplitAfter(w.body.Bytes(), []byte("\n\n")) {
		if len(ev) == 0 {
			continue
		}
		kind, data, ok := bytes.Cut(bytes.TrimSuffix(ev, []byte("\n\n")), []byte("\ndata: "))
		if !ok || !bytes.HasPrefix(kind, []byte("event: ")) {
			t.Fatalf("malformed event %q", ev)
		}
		k := string(kind[len("event: "):])
		kinds = append(kinds, k)
		switch k {
		case "record":
			var rec struct{ Seq int }
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatalf("record event %.80q: %v", data, err)
			}
			records[rec.Seq] = data
		case "status":
			if !bytes.Equal(data, final) {
				t.Errorf("status event %s, want the settled status %s", data, final)
			}
		case "end":
			if want := endData(StateDone, ""); !bytes.Equal(data, want) {
				t.Errorf("end event %s, want %s", data, want)
			}
		}
	}
	if n := len(kinds); n != 503 || kinds[0] != "status" || kinds[n-2] != "status" || kinds[n-1] != "end" {
		t.Fatalf("the stream holds %d events (first %q, last %q), want status, 500 records, status, end", n, kinds[0], kinds[n-1])
	}
	// The replay reads shard after shard; the merge orders by seq.
	var merged bytes.Buffer
	for seq := range len(records) {
		merged.Write(records[seq])
		merged.WriteByte('\n')
	}
	if !bytes.Equal(merged.Bytes(), log.Bytes()) {
		t.Fatal("the replayed records differ from the merged log")
	}
	if w.flushes != 1 {
		t.Fatalf("the settled campaign's stream took %d flushes, want 1", w.flushes)
	}
}
