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
// feed. Subscription precedes the replay, and live records duplicated
// by the replay are dropped by seq, so a subscriber — however late it
// attaches — collects exactly the records of the merged log, byte for
// byte.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	sse, ok := newSSEWriter(w)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	ch := j.hub.subscribe()
	defer j.hub.unsubscribe(ch)

	if err := sse.send("status", mustJSON(j.status())); err != nil {
		return
	}
	// Replay the durable records. A campaign that has not started (or
	// wrote nothing yet) simply has no shards to list.
	seen := map[int]bool{}
	var buf []byte
	err := campaign.ScanShardsIn(s.st, j.dir, func(rec campaign.JSONRecord) error {
		if seen[rec.Seq] {
			return nil
		}
		seen[rec.Seq] = true
		line, err := campaign.Codec{}.AppendEncode(buf[:0], &rec)
		if err != nil {
			return err
		}
		buf = line
		return sse.send("record", line)
	})
	if err != nil {
		return
	}
	// The live feed. The channel closes after the end event when the
	// campaign finishes, or without one when this subscriber lagged
	// past its buffer — then it is told to resubscribe (the replay
	// path makes reconnection lossless).
	for {
		select {
		case ev, open := <-ch:
			if !open {
				st := j.status()
				if st.State.Terminal() {
					sse.send("status", mustJSON(st))
					sse.send("end", endData(st.State, st.Error))
				} else {
					sse.send("end", endData("lagged", "subscriber fell behind; resubscribe to replay"))
				}
				return
			}
			if ev.seq >= 0 {
				if seen[ev.seq] {
					continue
				}
				seen[ev.seq] = true
			}
			if err := sse.send(ev.kind, ev.data); err != nil {
				return
			}
			if ev.kind == "end" {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

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
