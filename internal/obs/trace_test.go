package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"xmrobust/internal/store"
)

// writeLog records every write a tracer makes to its stream.
type writeLog struct {
	writes [][]byte
	closed bool
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *writeLog) Close() error {
	w.closed = true
	return nil
}

func (w *writeLog) bytes() []byte { return bytes.Join(w.writes, nil) }

// recordingStore hands out writeLogs for the trace streams it opens.
type recordingStore struct {
	*store.Mem
	logs map[string]*writeLog
}

func (s *recordingStore) AppendLog(name string, trimTorn bool) (io.WriteCloser, error) {
	w := &writeLog{}
	s.logs[name] = w
	return w, nil
}

// TestTracerWritesWholeLinesInBatches: a tracer writes nothing until it
// holds traceBatch bytes of events or closes, every write ends at a
// line boundary, and Close writes the rest — so the lines read back are
// exactly the events emitted, in order.
func TestTracerWritesWholeLinesInBatches(t *testing.T) {
	st := &recordingStore{Mem: store.NewMem(), logs: map[string]*writeLog{}}
	tr, err := NewTracer(st, "run/trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	w := st.logs["run/trace.jsonl"]
	stamp := time.Date(2024, 5, 1, 12, 0, 0, 123456789, time.UTC)
	tr.now = func() time.Time { return stamp }

	var want bytes.Buffer
	emitted := 0
	emit := func() {
		ev := Event{Kind: "lease.issue", Lease: uint64(emitted + 1), Start: emitted, N: 1}
		tr.Emit(ev)
		ev.T = stamp
		line, _ := json.Marshal(ev)
		want.Write(append(line, '\n'))
		emitted++
	}
	for want.Len() < traceBatch-200 {
		emit()
		if len(w.writes) != 0 {
			t.Fatalf("the tracer wrote after %d events (%d bytes), before holding %d bytes", emitted, want.Len(), traceBatch)
		}
	}
	for len(w.writes) == 0 {
		emit()
		if want.Len() > 2*traceBatch {
			t.Fatalf("the tracer held %d bytes without writing", want.Len())
		}
	}
	for i := 0; i < 10; i++ {
		emit()
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !w.closed {
		t.Error("Close did not close the stream")
	}
	if len(w.writes) != 2 {
		t.Errorf("the tracer made %d writes, want one batch and the rest at Close", len(w.writes))
	}
	if len(w.writes[0]) < traceBatch {
		t.Errorf("the first write holds %d bytes, want at least %d", len(w.writes[0]), traceBatch)
	}
	for i, p := range w.writes {
		if len(p) == 0 || p[len(p)-1] != '\n' {
			t.Errorf("write %d does not end at a newline", i)
		}
	}
	if got := w.bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("the stream holds %d bytes, want the %d bytes of the %d events emitted", len(got), want.Len(), emitted)
	}

	var nilTracer *Tracer
	nilTracer.Emit(Event{Kind: "x"})
	if err := nilTracer.Close(); err != nil {
		t.Errorf("nil Tracer Close = %v", err)
	}
}

// TestTracerOnMemStore: through the in-memory store, a trace stream is
// empty until Close and then holds every event as one JSON line.
func TestTracerOnMemStore(t *testing.T) {
	st := store.NewMem()
	tr, err := NewTracer(st, "trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"campaign.start", "lease.issue", "lease.complete", "campaign.end"} {
		tr.Emit(Event{Kind: kind, Campaign: "rand:1"})
	}
	if got := readLog(t, st, "trace.jsonl"); len(got) != 0 {
		t.Fatalf("the stream holds %q before Close", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(readLog(t, st, "trace.jsonl")), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("after Close the stream holds %d lines, want 4", len(lines))
	}
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.T.IsZero() {
			t.Errorf("bad trace line %q (%v)", line, err)
		}
	}
}

func readLog(t *testing.T, st *store.Mem, name string) []byte {
	t.Helper()
	rc, err := st.OpenLog(name)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzTraceEvent pins the trace encoder to encoding/json: for any
// event, the line Emit writes is json.Marshal's bytes and a newline, and
// Emit drops the event exactly where json.Marshal fails (a year outside
// 0–9999, or a zone offset RFC 3339 cannot write).
func FuzzTraceEvent(f *testing.F) {
	add := func(sec, nsec int64, zone int, ev Event) {
		f.Add(sec, nsec, zone, ev.Kind, ev.Campaign, ev.Lease, ev.Start, ev.N, ev.Detail)
	}
	add(1714564800, 123456789, 0, Event{Kind: "lease.issue", Lease: 7, Start: 12, N: 4})
	add(1714564800, 0, 0, Event{Kind: "campaign.start", Campaign: "rand:500", N: 500, Detail: "inject:sim"})
	add(0, 0, 0, Event{})
	add(-62135596800, 0, 0, Event{Kind: "year one"})
	add(253402300799, 999999999, 0, Event{Kind: "year 9999"})
	add(253402300800, 0, 0, Event{Kind: "year 10000"})
	add(-62167219201, 0, 0, Event{Kind: "year -1"})
	add(1714564800, 500, 5*3600+30*60, Event{Kind: "east", Detail: "+05:30"})
	add(1714564800, 500, -(9*3600 + 45), Event{Kind: "west", Detail: "-09:00:45"})
	add(1714564800, 1, 24*3600, Event{Kind: "offset 24h"})
	add(1714564800, 1, -25*3600, Event{Kind: "offset -25h"})
	add(1714564800, 1, 0, Event{Kind: `say "hi"`, Campaign: `back\slash`, Detail: "tab\tnew\nline\x00nul\x1fus\x7fdel"})
	add(1714564800, 1, 0, Event{Kind: "<html>&amp;", Detail: "a<b>c&d"})
	add(1714564800, 1, 0, Event{Kind: "bad\xffutf8\xc3", Detail: "\xed\xa0\x80 surrogate"})
	add(1714564800, 1, 0, Event{Kind: "line\u2028sep", Detail: "para\u2029sep \u00e9 \u65e5\u672c"})
	add(1714564800, 1, 0, Event{Kind: "counts", Lease: 1<<64 - 1, Start: -1, N: -9223372036854775808})
	add(1714564800, 1, 0, Event{Kind: "zeros", Lease: 0, Start: 0, N: 0})
	f.Fuzz(func(t *testing.T, sec, nsec int64, zone int, kind, campaign string, lease uint64, start, n int, detail string) {
		stamp := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
		ev := Event{
			T:    time.Unix(sec, nsec).In(time.FixedZone("z", zone)),
			Kind: kind, Campaign: campaign, Lease: lease, Start: start, N: n, Detail: detail,
		}
		w := &writeLog{}
		tr := &Tracer{w: w, now: func() time.Time { return stamp }}
		tr.Emit(ev)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if ev.T.IsZero() {
			ev.T = stamp
		}
		want, err := json.Marshal(ev)
		got := w.bytes()
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("json.Marshal fails (%v), but Emit wrote %q", err, got)
			}
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("Emit wrote\n%q\nwant json.Marshal's\n%q", got, want)
		}
	})
}
