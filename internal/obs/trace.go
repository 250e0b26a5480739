package obs

import (
	"encoding/json"
	"io"
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

// Tracer appends events to a JSONL stream. Emit is safe for concurrent
// use and never fails the caller — tracing is advisory, campaigns do
// not abort on a full disk for it. A nil Tracer drops every event.
type Tracer struct {
	mu  sync.Mutex
	w   io.WriteCloser
	now func() time.Time
}

// NewTracer opens (appending) the named trace stream in st.
func NewTracer(st store.LogStore, name string) (*Tracer, error) {
	w, err := st.AppendLog(name, true)
	if err != nil {
		return nil, err
	}
	return &Tracer{w: w, now: time.Now}, nil
}

// Emit appends one event, stamping T when unset.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if ev.T.IsZero() {
		ev.T = t.now()
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	t.w.Write(line)
	t.mu.Unlock()
}

// Close closes the underlying stream.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Close()
}
