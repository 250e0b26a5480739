package serve

import (
	"bufio"
	"net/http"
	"sync"
)

// event is one item of a campaign's live stream. Record events carry
// the campaign position (Seq >= 0) so subscribers replaying shard files
// can drop the live copies of records they already saw; every other
// kind carries Seq -1.
type event struct {
	kind string // "status", "record", "progress", "end"
	data []byte
	seq  int
}

// subscriber buffer: a consumer this many events behind the campaign is
// cut off (it resubscribes and replays from the shard files) rather
// than allowed to backpressure the engine's workers.
const subscriberBuffer = 4096

// hub fans a campaign's event stream out to its SSE subscribers.
// Broadcast never blocks: a subscriber whose buffer is full is dropped
// (its channel closes, and the handler tells it to resubscribe — the
// shard replay path makes reconnection lossless). After close,
// subscribe returns an already-closed channel, so late subscribers fall
// straight through to the replay-then-end path.
type hub struct {
	mu     sync.Mutex
	subs   map[chan event]bool
	closed bool
}

func newHub() *hub { return &hub{subs: map[chan event]bool{}} }

// subscribe registers a new subscriber channel. On a closed hub the
// returned channel is already closed.
func (h *hub) subscribe() chan event {
	ch := make(chan event, subscriberBuffer)
	h.mu.Lock()
	if h.closed {
		close(ch)
	} else {
		h.subs[ch] = true
	}
	h.mu.Unlock()
	return ch
}

// unsubscribe removes a subscriber (idempotent; safe after a drop).
func (h *hub) unsubscribe(ch chan event) {
	h.mu.Lock()
	if h.subs[ch] {
		delete(h.subs, ch)
		close(ch)
	}
	h.mu.Unlock()
}

// broadcast delivers evs, in order, to every subscriber, dropping any
// whose buffer cannot take them all. Events broadcast together reach a
// subscriber together, so its handler writes them in one flush.
func (h *hub) broadcast(evs ...event) {
	h.mu.Lock()
subs:
	for ch := range h.subs {
		for _, ev := range evs {
			select {
			case ch <- ev:
			default:
				delete(h.subs, ch)
				close(ch)
				continue subs
			}
		}
	}
	h.mu.Unlock()
}

// close ends the stream: every subscriber channel closes after the
// events already buffered, and future subscribers get a closed channel.
func (h *hub) close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		for ch := range h.subs {
			delete(h.subs, ch)
			close(ch)
		}
	}
	h.mu.Unlock()
}

// sseWriter frames events as Server-Sent Events on one response.
// Event data is always a single line (campaign records never contain
// newlines), so each event is exactly "event: <kind>\ndata: <data>\n\n".
// Written events gather in the buffer until flush, or until it fills.
type sseWriter struct {
	bw *bufio.Writer
	f  http.Flusher
}

func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	return &sseWriter{bw: bufio.NewWriter(w), f: f}, true
}

// write frames one event into the buffer.
func (w *sseWriter) write(kind string, data []byte) error {
	w.bw.WriteString("event: ")
	w.bw.WriteString(kind)
	w.bw.WriteString("\ndata: ")
	w.bw.Write(data)
	_, err := w.bw.WriteString("\n\n")
	return err
}

// flush sends the events written since the last flush to the client.
func (w *sseWriter) flush() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.f.Flush()
	return nil
}
