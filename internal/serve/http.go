package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"

	"xmrobust/internal/campaign"
	"xmrobust/internal/obs"
)

// Handler returns the service's HTTP surface: the /v1/campaigns API
// plus the ops endpoints (/metrics, /healthz, /progress, /debug/pprof)
// mounted from the service's observability handle.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/log", s.handleLog)
	obs.Mount(mux, s.obs)
	return mux
}

// maxSubmissionBytes bounds a submission body; the JSON above is a few
// hundred bytes, so a megabyte is generous.
const maxSubmissionBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmissionBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad submission: %v", err))
		return
	}
	client := sub.Client
	if client == "" {
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			client = host
		} else {
			client = r.RemoteAddr
		}
	}
	st, err := s.Submit(sub, client)
	if err != nil {
		var se *submitError
		if errors.As(err, &se) {
			httpError(w, se.code, se.msg)
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/campaigns/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	switch {
	case !ok:
		httpError(w, http.StatusNotFound, "unknown campaign")
	case st.State.Terminal():
		// Nothing to cancel; report the settled state.
		writeJSON(w, http.StatusConflict, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Errors past this point are mid-body; the bytes already written
	// are a valid log prefix, so there is nothing better to send.
	s.MergedLog(id, w)
}

// handleEvents is the SSE stream: an initial status event, a replay of
// every record already in the campaign's shard files, then the live
// feed. The replay sends each record's merged-log line as
// campaign.ScanShardLinesIn yields it and keeps the first copy of a
// seq, as the merge does. Subscription precedes the
// replay, and live records duplicated by the replay are dropped by seq,
// so a subscriber — however late it attaches — collects exactly the
// records of the merged log, byte for byte. A settled campaign's stream
// is the replay between its final status and its end.
//
// Events leave in batches: the status and the replay together, then
// every live event the subscriber's channel holds, flushed when the
// channel drains. The bytes are those of one flush per event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, final, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	sse, ok := newSSEWriter(w)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	// A settled campaign's feed is already over: its channel is closed,
	// and its status is the one it settled with.
	ch, status, dir := closedFeed, func() Status { return final }, final.Dir
	if j != nil {
		ch, status, dir = j.hub.subscribe(), j.status, j.dir
		defer j.hub.unsubscribe(ch)
	}

	if err := sse.write("status", mustJSON(status())); err != nil {
		return
	}
	// Replay the durable records. A campaign that has not started (or
	// wrote nothing yet) simply has no shards to list.
	seen := map[int]bool{}
	err := campaign.ScanShardLinesIn(s.st, dir, func(seq int, line []byte) error {
		if seen[seq] {
			return nil
		}
		seen[seq] = true
		return sse.write("record", line)
	})
	if err != nil {
		return
	}
	// The live feed. The channel closes after the end event when the
	// campaign finishes, or without one when this subscriber lagged
	// past its buffer — then it is told to resubscribe (the replay
	// path makes reconnection lossless).
	for {
		var (
			ev   event
			open bool
		)
		select {
		case ev, open = <-ch:
		default:
			// Nothing queued: what was written leaves now.
			if sse.flush() != nil {
				return
			}
			select {
			case ev, open = <-ch:
			case <-r.Context().Done():
				return
			}
		}
		if !open {
			st := status()
			if st.State.Terminal() {
				sse.write("status", mustJSON(st))
				sse.write("end", endData(st.State, st.Error))
			} else {
				sse.write("end", endData("lagged", "subscriber fell behind; resubscribe to replay"))
			}
			sse.flush()
			return
		}
		if ev.seq >= 0 {
			if seen[ev.seq] {
				continue
			}
			seen[ev.seq] = true
		}
		if err := sse.write(ev.kind, ev.data); err != nil {
			return
		}
		if ev.kind == "end" {
			sse.flush()
			return
		}
	}
}

// closedFeed is the live feed of a settled campaign: closed, with
// nothing in it.
var closedFeed = func() chan event {
	ch := make(chan event)
	close(ch)
	return ch
}()

// --- helpers ------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// mustJSON marshals service-owned types whose encoding cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// endData is the body of an SSE end event.
func endData[T ~string](state T, errStr string) []byte {
	return mustJSON(map[string]string{"state": string(state), "error": errStr})
}
