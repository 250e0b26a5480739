package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"

	"xmrobust/internal/store"
)

// Event is one span-style trace record: a campaign, lease, or test
// lifecycle moment. Events serialise as JSON Lines through the
// internal/store seam, so remote workers and local runs persist traces
// the same way shards and checkpoints already travel.
type Event struct {
	// T is the wall-clock emission time (stamped by Emit when zero).
	T time.Time `json:"t"`
	// Kind names the moment: campaign.start, campaign.end, lease.issue,
	// lease.complete.
	Kind string `json:"kind"`
	// Campaign identifies the run (the plan spec).
	Campaign string `json:"campaign,omitempty"`
	// Lease is the lease ID for lease.* events.
	Lease uint64 `json:"lease,omitempty"`
	// Start is the first plan position of the lease's range.
	Start int `json:"start,omitempty"`
	// N is the position count (lease events) or total tests (campaign
	// events).
	N int `json:"n,omitempty"`
	// Detail carries kind-specific context (error strings, target names).
	Detail string `json:"detail,omitempty"`
}

// traceBatch is how many bytes of whole lines a Tracer gathers before
// it writes them: one write per batch instead of one per event.
const traceBatch = 64 << 10

// Tracer appends events to a JSONL stream. Emit is safe for concurrent
// use and never fails the caller — tracing is advisory, campaigns do
// not abort on a full disk for it. Events are written in batches of
// whole lines, when traceBatch bytes have gathered and at Close, so the
// stream is complete once Close returns and a killed process's stream
// ends at a whole event. A nil Tracer drops every event.
type Tracer struct {
	mu  sync.Mutex
	w   io.WriteCloser
	now func() time.Time
	buf []byte // whole lines not yet written
}

// NewTracer opens (appending) the named trace stream in st.
func NewTracer(st store.LogStore, name string) (*Tracer, error) {
	w, err := st.AppendLog(name, true)
	if err != nil {
		return nil, err
	}
	return &Tracer{w: w, now: time.Now, buf: make([]byte, 0, traceBatch+1<<10)}, nil
}

// Emit appends one event, stamping T when unset. An event json.Marshal
// refuses is dropped: one whose time RFC 3339 cannot write (a year
// outside 0–9999, a zone offset of a day or more).
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if ev.T.IsZero() {
		ev.T = t.now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	line, ok := appendEvent(t.buf, &ev)
	if !ok {
		return
	}
	t.buf = append(line, '\n')
	if len(t.buf) >= traceBatch {
		t.w.Write(t.buf)
		t.buf = t.buf[:0]
	}
}

// Close writes the events still gathered and closes the underlying
// stream.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var err error
	if len(t.buf) > 0 {
		_, err = t.w.Write(t.buf)
		t.buf = t.buf[:0]
	}
	if cerr := t.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendEvent appends ev's JSON object to b, byte for byte what
// json.Marshal(ev) returns. It reports false, with b's first len(b)
// bytes unchanged, where json.Marshal fails. The time is
// AppendFormat(RFC3339Nano) through AppendText, which refuses what
// MarshalJSON refuses.
func appendEvent(b []byte, ev *Event) ([]byte, bool) {
	b = append(b, `{"t":"`...)
	b, err := ev.T.AppendText(b)
	if err != nil {
		return b, false
	}
	b = append(b, `","kind":`...)
	b = appendString(b, ev.Kind)
	if ev.Campaign != "" {
		b = append(b, `,"campaign":`...)
		b = appendString(b, ev.Campaign)
	}
	if ev.Lease != 0 {
		b = append(b, `,"lease":`...)
		b = strconv.AppendUint(b, ev.Lease, 10)
	}
	if ev.Start != 0 {
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, int64(ev.Start), 10)
	}
	if ev.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(ev.N), 10)
	}
	if ev.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendString(b, ev.Detail)
	}
	return append(b, '}'), true
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json would not escape is copied between quotes; any other
// string goes through encoding/json, which escapes it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
